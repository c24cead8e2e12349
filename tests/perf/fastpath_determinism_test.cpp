// Determinism contract of the templated Monte-Carlo drivers: merged
// statistics are BIT-identical for every worker count, including when a
// trial itself calls parallel_for.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/monte_carlo.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace tcast {
namespace {

double trial_metric(RngStream& rng) {
  // Irregular enough that any reordering or stream reuse shows up.
  const double a = rng.uniform01();
  const double b = rng.normal(0.0, 2.0);
  return a + 0.25 * b + (rng.bernoulli(0.3) ? 1.0 : 0.0);
}

void expect_bitwise_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  // Bit-exact, not approximately equal: the reduction order is part of the
  // determinism contract.
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

std::vector<std::size_t> worker_counts_under_test() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts{1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

TEST(FastPathDeterminism, RunTrialsIdenticalAcrossWorkerCounts) {
  MonteCarloConfig base;
  base.trials = 501;  // odd, not a multiple of any chunk size
  base.experiment_id = 11;
  ThreadPool reference_pool(1);
  base.pool = &reference_pool;
  const RunningStats reference = run_trials(base, trial_metric);
  for (const std::size_t workers : worker_counts_under_test()) {
    ThreadPool pool(workers);
    MonteCarloConfig cfg = base;
    cfg.pool = &pool;
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(run_trials(cfg, trial_metric), reference);
  }
}

TEST(FastPathDeterminism, NestedParallelForStillDeterministic) {
  // A trial that itself calls parallel_for on the pool it runs on must run
  // its inner loop inline (worker-thread re-entry) and still produce
  // worker-count-independent results. The inner loop must target that same
  // pool: on any other pool it would fan out, and its unsynchronized body
  // would race.
  MonteCarloConfig cfg;
  const auto trial = [&cfg](RngStream& rng) {
    double acc = rng.uniform01();
    parallel_for(
        4, [&acc](std::size_t i) { acc += static_cast<double>(i) * 1e-3; },
        cfg.pool);
    return acc;
  };
  ThreadPool one(1);
  ThreadPool many(4);
  cfg.trials = 64;
  cfg.experiment_id = 19;
  cfg.pool = &one;
  const RunningStats serial = run_trials(cfg, trial);
  cfg.pool = &many;
  const RunningStats parallel = run_trials(cfg, trial);
  expect_bitwise_equal(serial, parallel);
}

}  // namespace
}  // namespace tcast
