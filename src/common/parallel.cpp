#include "common/parallel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcast {

namespace {
/// Set for the lifetime of a worker thread; lets run_batch() detect (and
/// loudly reject) nested waits that would deadlock the pool.
thread_local const ThreadPool* t_worker_of = nullptr;
/// Set while an external thread is inside run_batch(): it helps drain the
/// batch, so a batch body can execute on it and must not re-enter the pool
/// (batch_mu_ is held — re-entry would self-deadlock).
thread_local const ThreadPool* t_batch_caller_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_of == this; }

bool ThreadPool::in_batch_on_this_thread() const {
  return t_worker_of == this || t_batch_caller_of == this;
}

std::size_t ThreadPool::drain_batch(BatchFn fn, void* ctx, std::size_t end) {
  std::size_t done = 0;
  for (;;) {
    const std::size_t i = batch_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) break;
    fn(ctx, i);
    ++done;
  }
  return done;
}

void ThreadPool::run_batch(std::size_t count, BatchFn fn, void* ctx) {
  if (count == 0) return;
  TCAST_CHECK_MSG(!on_worker_thread(),
                  "run_batch from a worker of this pool would deadlock (no "
                  "nested-wait support); parallel_for runs inline instead");
  TCAST_CHECK_MSG(t_batch_caller_of != this,
                  "run_batch re-entered from a batch body on the calling "
                  "thread would self-deadlock; parallel_for runs inline "
                  "instead");
  // One batch at a time: external callers serialize here, so the batch_*
  // fields always describe the single active batch.
  std::lock_guard serialize(batch_mu_);
  t_batch_caller_of = this;
  {
    std::lock_guard lk(mu_);
    TCAST_CHECK_MSG(!stop_, "run_batch on a stopped pool");
    batch_fn_ = fn;
    batch_ctx_ = ctx;
    batch_next_.store(0, std::memory_order_relaxed);
    batch_end_ = count;
    batch_done_ = 0;
  }
  cv_task_.notify_all();
  const std::size_t done = drain_batch(fn, ctx, count);  // caller helps
  std::unique_lock lk(mu_);
  batch_done_ += done;
  // Wait for completion AND for every participating worker to leave
  // drain_batch, so no stale snapshot can touch the next batch's cursor.
  cv_idle_.wait(lk, [this] {
    return batch_done_ == batch_end_ && batch_workers_ == 0;
  });
  batch_fn_ = nullptr;
  batch_ctx_ = nullptr;
  batch_end_ = 0;
  t_batch_caller_of = nullptr;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::unique_lock lk(mu_);
  for (;;) {
    cv_task_.wait(lk, [this] { return stop_ || batch_pending_locked(); });
    if (batch_pending_locked()) {
      const BatchFn fn = batch_fn_;
      void* ctx = batch_ctx_;
      const std::size_t end = batch_end_;
      ++batch_workers_;
      lk.unlock();
      const std::size_t done = drain_batch(fn, ctx, end);
      lk.lock();
      batch_done_ += done;
      --batch_workers_;
      if (batch_done_ == batch_end_ && batch_workers_ == 0)
        cv_idle_.notify_all();
      continue;
    }
    if (stop_) return;  // stopped and fully drained
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tcast
