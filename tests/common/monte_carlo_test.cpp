#include "common/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <span>

namespace tcast {
namespace {

TEST(MonteCarlo, TrialCountHonoured) {
  MonteCarloConfig cfg;
  cfg.trials = 123;
  const auto s = run_trials(cfg, [](RngStream&) { return 1.0; });
  EXPECT_EQ(s.count(), 123u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(MonteCarlo, BitIdenticalAcrossWorkerCounts) {
  MonteCarloConfig cfg1, cfg4;
  ThreadPool p1(1), p4(4);
  cfg1.trials = cfg4.trials = 500;
  cfg1.pool = &p1;
  cfg4.pool = &p4;
  const auto trial = [](RngStream& rng) { return rng.normal(5.0, 2.0); };
  const auto a = run_trials(cfg1, trial);
  const auto b = run_trials(cfg4, trial);
  EXPECT_EQ(a.mean(), b.mean());  // bit-exact, not just close
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(MonteCarlo, ExperimentIdChangesStreams) {
  MonteCarloConfig a, b;
  a.trials = b.trials = 200;
  a.experiment_id = 1;
  b.experiment_id = 2;
  const auto trial = [](RngStream& rng) { return rng.uniform01(); };
  EXPECT_NE(run_trials(a, trial).mean(), run_trials(b, trial).mean());
}

TEST(MonteCarlo, TrialsSeeIndependentStreams) {
  MonteCarloConfig cfg;
  cfg.trials = 100;
  const auto s =
      run_trials(cfg, [](RngStream& rng) { return rng.uniform01(); });
  // If all trials shared a stream state they'd all return the same value.
  EXPECT_GT(s.variance(), 0.01);
}

TEST(MonteCarlo, BoolTrialsCountSuccesses) {
  MonteCarloConfig cfg;
  cfg.trials = 2000;
  const auto p =
      run_bool_trials(cfg, [](RngStream& rng) { return rng.bernoulli(0.25); });
  EXPECT_EQ(p.trials(), 2000u);
  EXPECT_NEAR(p.value(), 0.25, 0.03);
}

TEST(MonteCarlo, DeterminismRegressionAcrossThreadCounts) {
  // The documented contract in monte_carlo.hpp: merged stats are bit-exact
  // for ANY worker count given the same root seed. Regression-pin it for
  // 1, 2 and 8 workers, for both run_trials and run_multi_trials, on a
  // trial that consumes a non-trivial amount of RNG state.
  const auto trial = [](RngStream& rng) {
    double acc = 0.0;
    for (int i = 0; i < 17; ++i) acc += rng.normal(1.0, 3.0);
    return acc;
  };
  const auto multi_trial = [&trial](RngStream& rng, std::span<double> out) {
    out[0] = trial(rng);
    out[1] = rng.uniform01();
  };

  ThreadPool p1(1), p2(2), p8(8);
  ThreadPool* pools[] = {&p1, &p2, &p8};

  MonteCarloConfig base;
  base.trials = 777;
  base.seed = 0xfeedULL;
  base.experiment_id = 5;

  std::vector<RunningStats> single;
  std::vector<std::vector<RunningStats>> multi;
  for (ThreadPool* pool : pools) {
    MonteCarloConfig cfg = base;
    cfg.pool = pool;
    single.push_back(run_trials(cfg, trial));
    multi.push_back(run_multi_trials(cfg, 2, multi_trial));
  }
  for (std::size_t i = 1; i < single.size(); ++i) {
    EXPECT_EQ(single[0].mean(), single[i].mean());  // bit-exact
    EXPECT_EQ(single[0].variance(), single[i].variance());
    EXPECT_EQ(single[0].min(), single[i].min());
    EXPECT_EQ(single[0].max(), single[i].max());
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_EQ(multi[0][m].mean(), multi[i][m].mean());
      EXPECT_EQ(multi[0][m].variance(), multi[i][m].variance());
    }
  }
}

TEST(MonteCarlo, MultiMetricKeepsMetricsApart) {
  MonteCarloConfig cfg;
  cfg.trials = 50;
  const auto stats = run_multi_trials(
      cfg, 2, [](RngStream&, std::span<double> out) {
        out[0] = 1.0;
        out[1] = 2.0;
      });
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].mean(), 1.0);
  EXPECT_DOUBLE_EQ(stats[1].mean(), 2.0);
}

}  // namespace
}  // namespace tcast
