#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace tcast {
namespace {

TEST(ThreadPool, WorkerCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(
      hits.size(), [&hits](std::size_t i) { ++hits[i]; }, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(0, [](std::size_t) { FAIL() << "must not run"; }, &pool);
}

TEST(ParallelFor, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for(
      10, [&order](std::size_t i) { order.push_back(i); }, &pool);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);  // sequential and ordered
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  parallel_for(
      10000, [&sum](std::size_t i) { sum += static_cast<long long>(i); },
      &pool);
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPool, RunBatchVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  struct Ctx {
    std::vector<std::atomic<int>>* hits;
  } ctx{&hits};
  pool.run_batch(
      hits.size(),
      [](void* raw, std::size_t i) { ++(*static_cast<Ctx*>(raw)->hits)[i]; },
      &ctx);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackBatchesDoNotLeakIndices) {
  // Regression guard for the stale-snapshot race: a worker still holding the
  // previous batch's end must never consume the next batch's cursor.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> seen{0};
    struct Ctx {
      std::atomic<std::size_t>* seen;
    } ctx{&seen};
    const std::size_t n = 1 + static_cast<std::size_t>(round % 17);
    pool.run_batch(
        n,
        [](void* raw, std::size_t) {
          static_cast<Ctx*>(raw)->seen->fetch_add(1,
                                                  std::memory_order_relaxed);
        },
        &ctx);
    ASSERT_EQ(seen.load(), n) << "round " << round;
  }
}

TEST(ThreadPool, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(2);
  ThreadPool b(2);
  EXPECT_FALSE(a.on_worker_thread());
  // Two indices: the calling thread holds the one it claims until a worker
  // of `a` has run the other, so both kinds of thread run a batch body.
  struct Ctx {
    ThreadPool* a;
    ThreadPool* b;
    std::thread::id caller;
    std::atomic<bool> worker_ran{false};
    std::atomic<int> checks{0};
  } ctx{&a, &b, std::this_thread::get_id()};
  a.run_batch(
      2,
      [](void* raw, std::size_t) {
        auto& c = *static_cast<Ctx*>(raw);
        const bool on_caller = std::this_thread::get_id() == c.caller;
        if (c.a->on_worker_thread() != !on_caller || c.b->on_worker_thread())
          return;
        if (on_caller) {
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!c.worker_ran.load() &&
                 std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
        } else {
          c.worker_ran.store(true);
        }
        ++c.checks;
      },
      &ctx);
  EXPECT_TRUE(ctx.worker_ran.load());
  EXPECT_EQ(ctx.checks.load(), 2);
}

TEST(ParallelFor, NestedCallRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        // Re-entrant parallel_for on the same pool must degrade to an inline
        // loop on this worker, not wait on the pool.
        parallel_for(
            5, [&inner_total](std::size_t) { ++inner_total; }, &pool);
      },
      &pool);
  EXPECT_EQ(inner_total.load(), 8 * 5);
}

// Nested waiting is a programming error and must die loudly (TCAST_CHECK ->
// abort), not deadlock. Death tests fork, so use the threadsafe style.
TEST(ThreadPoolDeathTest, RunBatchFromWorkerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.run_batch(
            2,
            [](void* raw, std::size_t) {
              auto& p = *static_cast<ThreadPool*>(raw);
              if (p.on_worker_thread()) {
                p.run_batch(4, [](void*, std::size_t) {}, nullptr);
              } else {
                // The caller holds its index so that a worker runs the
                // other; the worker's abort tears us down.
                std::this_thread::sleep_for(std::chrono::seconds(5));
              }
            },
            &pool);
      },
      "run_batch from a worker");
}

}  // namespace
}  // namespace tcast
