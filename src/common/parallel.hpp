// Minimal thread pool + parallel_for for Monte-Carlo fan-out.
//
// The experiments are embarrassingly parallel across trials: each trial owns
// an independent RNG stream, so results are bit-identical regardless of the
// worker count (including 1). The pool uses static chunking — trials are
// near-uniform cost, so work stealing would buy nothing here.
//
// One execution path, run_batch(), under parallel_for: ONE type-erased
// callable (a raw function pointer + context, no std::function, no
// allocation) shared by every worker, with chunk indices handed out through
// an atomic counter. The calling thread participates in draining the batch.
//
// Nested waiting is a hard error, not a documented footgun: run_batch()
// called from a worker thread of the same pool TCAST_CHECK-fails loudly
// instead of deadlocking. parallel_for called from a worker degrades to an
// inline sequential loop (same results — chunking never affects observable
// output).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tcast {

/// Fixed-size worker pool that runs one index batch at a time.
class ThreadPool {
 public:
  /// Type-erased index callable used by run_batch: fn(ctx, index).
  using BatchFn = void (*)(void*, std::size_t);

  /// `workers == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Runs fn(ctx, i) for every i in [0, count), fanned out across the
  /// workers plus the calling thread; blocks until the batch completes.
  /// No per-index or per-chunk heap allocation. Concurrent run_batch calls
  /// from distinct external threads serialize. Calling from one of this
  /// pool's workers fails a TCAST_CHECK (prefer parallel_for, which runs
  /// inline in that case).
  void run_batch(std::size_t count, BatchFn fn, void* ctx);

  /// True iff the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// True iff the calling thread is currently executing batch work for this
  /// pool: a worker thread, or the external caller inside run_batch() (the
  /// caller participates in draining, so a batch body can run on it).
  /// parallel_for uses this to degrade to an inline loop instead of
  /// re-entering the pool.
  bool in_batch_on_this_thread() const;

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Claims and runs batch indices until the batch is exhausted; returns how
  /// many this thread completed.
  std::size_t drain_batch(BatchFn fn, void* ctx, std::size_t end);
  bool batch_pending_locked() const {
    return batch_fn_ != nullptr &&
           batch_next_.load(std::memory_order_relaxed) < batch_end_;
  }

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  bool stop_ = false;

  // Active-batch state. batch_mu_ serializes external run_batch callers;
  // the fields below are written under mu_ and read by workers either under
  // mu_ (snapshot) or via the atomic cursor.
  std::mutex batch_mu_;
  BatchFn batch_fn_ = nullptr;
  void* batch_ctx_ = nullptr;
  std::atomic<std::size_t> batch_next_{0};
  std::size_t batch_end_ = 0;
  std::size_t batch_done_ = 0;
  std::size_t batch_workers_ = 0;  ///< workers currently inside drain_batch

  std::vector<std::thread> threads_;
};

/// Runs body(i) for i in [0, n), chunked across the pool. Blocks until done.
/// body must be safe to invoke concurrently for distinct i. The callable is
/// invoked directly (inlined into the chunk loop) — no std::function, no
/// heap allocation. Called from a pool worker thread, runs inline.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, ThreadPool* pool = nullptr) {
  if (n == 0) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t workers = pool->worker_count();
  if (workers <= 1 || n == 1 || pool->in_batch_on_this_thread()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  using BodyT = std::remove_reference_t<Body>;
  struct Ctx {
    BodyT* body;
    std::size_t n;
    std::size_t chunk;
  } ctx{&body, n, chunk};
  pool->run_batch(
      chunks,
      [](void* raw, std::size_t c) {
        auto& x = *static_cast<Ctx*>(raw);
        const std::size_t lo = c * x.chunk;
        const std::size_t hi = std::min(x.n, lo + x.chunk);
        for (std::size_t i = lo; i < hi; ++i) (*x.body)(i);
      },
      &ctx);
}

}  // namespace tcast
