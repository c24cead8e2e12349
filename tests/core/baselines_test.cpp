// The slot-level CSMA and sequential-ordering baselines (core/baselines):
// CSMA's cost grows with x and its quiescence rule can misfire near the
// threshold; sequential ordering is always right within n slots.
#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/monte_carlo.hpp"

namespace tcast::core {
namespace {

TEST(CsmaFeedback, ZeroPositivesCostsOnlyQuiescence) {
  RngStream rng(1);
  const auto r = run_csma_baseline(64, 0, 8, rng);
  EXPECT_FALSE(r.decision);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.slots, kCsmaQuiescenceSlots);
  EXPECT_EQ(r.successes, 0u);
}

TEST(CsmaFeedback, ThresholdReachedStopsAtTSuccesses) {
  RngStream rng(2);
  const auto r = run_csma_baseline(64, 40, 8, rng);
  EXPECT_TRUE(r.decision);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.successes, 8u);
}

TEST(CsmaFeedback, SinglePositiveBelowThreshold) {
  RngStream rng(3);
  const auto r = run_csma_baseline(64, 1, 8, rng);
  EXPECT_FALSE(r.decision);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.successes, 1u);
}

TEST(CsmaFeedback, CostGrowsWithPositives) {
  // Average slots must grow (roughly linearly) in x — the paper's core
  // argument against CSMA for large x.
  const auto mean_slots = [](std::size_t x) {
    MonteCarloConfig mc;
    mc.trials = 400;
    mc.experiment_id = x;
    return run_trials(mc, [x](RngStream& rng) {
             return static_cast<double>(
                 run_csma_baseline(128, x, 16, rng).slots);
           })
        .mean();
  };
  const double at8 = mean_slots(8);
  const double at32 = mean_slots(32);
  const double at96 = mean_slots(96);
  EXPECT_LT(at8, at32);
  EXPECT_LT(at32, at96);
  EXPECT_GT(at96, 96.0);  // at least one slot per reply... (16 needed but
                          // cost counts only until t=16 successes)
}

TEST(CsmaFeedback, CostCappedByHardStop) {
  RngStream rng(4);
  const auto r = run_csma_baseline(256, 256, 300, rng);
  EXPECT_LE(r.slots, kCsmaQuiescenceSlots + 4 * 257 * kCsmaMaxCw);
}

TEST(CsmaFeedback, CollisionsHappenUnderContention) {
  MonteCarloConfig mc;
  mc.trials = 100;
  const auto collisions = run_trials(mc, [](RngStream& rng) {
    return static_cast<double>(run_csma_baseline(64, 32, 64, rng).collisions);
  });
  EXPECT_GT(collisions.mean(), 1.0);
}

/// Property sweep: the decision is correct whenever the margin between x and
/// t is comfortable (quiescence misfires need pathological backoff runs).
class CsmaCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CsmaCorrectnessTest, ClearMarginsDecideCorrectly) {
  const auto [x, t] = GetParam();
  MonteCarloConfig mc;
  mc.trials = 200;
  mc.experiment_id = x * 1000 + t;
  const auto correct = run_bool_trials(mc, [x = x, t = t](RngStream& rng) {
    return run_csma_baseline(64, x, t, rng).correct;
  });
  EXPECT_GE(correct.value(), 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Margins, CsmaCorrectnessTest,
    ::testing::Values(std::tuple{0, 8}, std::tuple{2, 8}, std::tuple{32, 8},
                      std::tuple{64, 8}, std::tuple{0, 1}, std::tuple{64, 1},
                      std::tuple{10, 32}));

TEST(CsmaFeedback, QuiescenceCanMisfireNearTheThreshold) {
  // The paper's point that "it is impossible to tell whether x > t or x < t
  // with certainty using CSMA": around x ≈ 2t the small initial contention
  // window produces backoff runs long enough to masquerade as silence, so a
  // measurable fraction of sessions decide wrongly.
  MonteCarloConfig mc;
  mc.trials = 500;
  const auto correct = run_bool_trials(mc, [](RngStream& rng) {
    return run_csma_baseline(64, 16, 8, rng).correct;
  });
  EXPECT_GT(correct.value(), 0.80);  // mostly right...
  EXPECT_LT(correct.value(), 1.00);  // ...but not certain
}

/// Exhaustive grid property: sequential ordering is always correct and never
/// uses more than n slots.
class SequentialGridTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SequentialGridTest, AlwaysCorrectWithinNSlots) {
  const auto [n, t] = GetParam();
  RngStream rng(n * 131 + t);
  for (std::size_t x = 0; x <= n; ++x) {
    const auto r = run_sequential_baseline(n, x, t, rng);
    EXPECT_EQ(r.decision, x >= t) << "n=" << n << " x=" << x << " t=" << t;
    EXPECT_LE(r.slots, n);
    EXPECT_LE(r.positives_seen, x);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SequentialGridTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 4, 12, 32, 128),
                       ::testing::Values<std::size_t>(1, 2, 8, 16)));

TEST(Sequential, ZeroThresholdTrivial) {
  RngStream rng(1);
  const auto r = run_sequential_baseline(16, 3, 0, rng);
  EXPECT_TRUE(r.decision);
  EXPECT_EQ(r.slots, 0u);
}

TEST(Sequential, ZeroPositivesCostsAboutNMinusT) {
  RngStream rng(2);
  const auto r = run_sequential_baseline(100, 0, 10, rng);
  EXPECT_FALSE(r.decision);
  EXPECT_EQ(r.slots, 91u);  // stops when 0 + remaining < 10
}

TEST(Sequential, AllPositivesCostExactlyT) {
  RngStream rng(3);
  const auto r = run_sequential_baseline(50, 50, 7, rng);
  EXPECT_TRUE(r.decision);
  EXPECT_EQ(r.slots, 7u);
}

TEST(Sequential, SmallXLargeCostShape) {
  // The paper: "sequential ordering starts with a large cost overhead
  // (approximately n − x) for x ≪ t".
  MonteCarloConfig mc;
  mc.trials = 500;
  const auto mean_cost = [&mc](std::size_t x) {
    mc.experiment_id = x;
    return run_trials(mc, [x](RngStream& rng) {
             return static_cast<double>(
                 run_sequential_baseline(128, x, 16, rng).slots);
           })
        .mean();
  };
  EXPECT_GT(mean_cost(2), 100.0);  // ≈ n − t + small
  EXPECT_LT(mean_cost(120), 30.0);  // x ≫ t: cheap
}

TEST(Sequential, ThresholdAboveNImpossibleImmediately) {
  RngStream rng(4);
  const auto r = run_sequential_baseline(8, 8, 20, rng);
  EXPECT_FALSE(r.decision);
  EXPECT_EQ(r.slots, 1u);  // first slot reveals remaining < t
}

}  // namespace
}  // namespace tcast::core
