#include "core/count_estimation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/monte_carlo.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

using group::ExactChannel;

TEST(CountEstimation, ZeroIsExactInOneQuery) {
  RngStream rng(1);
  auto ch = ExactChannel::with_random_positives(128, 0, rng);
  const auto est = estimate_positive_count(ch, ch.all_nodes(), rng);
  EXPECT_TRUE(est.exact);
  EXPECT_EQ(est.estimate, 0.0);
  EXPECT_EQ(est.queries, 1u);
}

TEST(CountEstimation, QueryBudgetIsLogarithmicPlusRepeats) {
  RngStream rng(2);
  auto ch = ExactChannel::with_random_positives(1024, 5, rng);
  const auto est = estimate_positive_count(ch, ch.all_nodes(), rng);
  // 1 anchor + ≤ (log2(1024)+3) levels · 6 probes + 30 refining repeats.
  EXPECT_LE(est.queries, 1u + 13 * 6 + 30);
}

/// Property sweep: the mean estimate tracks the true count within a
/// multiplicative band across two decades of x.
class CountEstimationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CountEstimationSweep, MeanEstimateWithinBand) {
  const std::size_t x = GetParam();
  constexpr std::size_t kN = 512;
  MonteCarloConfig mc;
  mc.trials = 200;
  mc.experiment_id = 9000 + x;
  const auto stats = run_trials(mc, [x](RngStream& rng) {
    auto ch = ExactChannel::with_random_positives(kN, x, rng);
    return estimate_positive_count(ch, ch.all_nodes(), rng).estimate;
  });
  EXPECT_GE(stats.mean(), static_cast<double>(x) * 0.6) << "x=" << x;
  EXPECT_LE(stats.mean(), static_cast<double>(x) * 1.6) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(TwoDecades, CountEstimationSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

// Statistical acceptance on an (N, x) grid at fixed seeds: the estimate
// must land inside the analytic (1±ε) envelope in at least the guaranteed
// fraction of trials.
//
// Envelope derivation. The refining level observes p̂, the non-empty
// fraction over R = refine_repeats (30) draws of p = 1 − (1−q)^x with the
// acceptance rule pinning p into ≈ [0.25, 0.65]. Hoeffding:
// P(|p̂−p| ≥ γ) ≤ 2·exp(−2Rγ²), so γ = sqrt(ln(2/δ)/(2R)) ≈ 0.223 at
// δ = 0.1. The inversion x̂ = ln(1−p̂)/ln(1−q) amplifies that by
// |dx̂/dp̂|·p̂→rel ≤ 1/min_p (1−p)·ln(1/(1−p)) ≈ 1/0.216 ≈ 4.6 over the
// accepted p-range, giving |x̂−x| ≤ 4.6·0.223·x ≈ 1.0·x with probability
// ≥ 1 − δ. So the claim audited here is ε = 1.0, δ = 0.1 (the empirical
// error is far tighter, ≈ ±23% mean — see CountEstimationSweep).
//
// Test tolerance. Over T fixed-seed trials the within-band count is
// Binomial(T, p≥1−δ); three sigmas of slack,
// floor = 1 − δ − 3·sqrt(δ(1−δ)/T), holds a correct estimator's per-cell
// false-alarm rate under ≈ 1.3e-3.
TEST(CountEstimation, StatisticalAcceptanceOnTheGrid) {
  constexpr double kEps = 1.0, kDelta = 0.1;
  constexpr std::size_t kTrials = 300;
  const double floor =
      1.0 - kDelta - 3.0 * std::sqrt(kDelta * (1.0 - kDelta) / kTrials);
  for (const std::size_t n : {256u, 1024u}) {
    for (const std::size_t x : {8u, 32u, 128u}) {
      MonteCarloConfig mc;
      mc.trials = kTrials;
      mc.experiment_id = 9500 + n + x;
      const auto within = run_trials(mc, [n, x](RngStream& rng) {
        auto ch = ExactChannel::with_random_positives(n, x, rng);
        const double est =
            estimate_positive_count(ch, ch.all_nodes(), rng).estimate;
        return std::abs(est - static_cast<double>(x)) <=
                       kEps * static_cast<double>(x)
                   ? 1.0
                   : 0.0;
      });
      EXPECT_GE(within.mean(), floor) << "n=" << n << " x=" << x;
    }
  }
}

TEST(CountEstimation, FullSetEstimatesHigh) {
  RngStream rng(3);
  auto ch = ExactChannel::with_random_positives(64, 64, rng);
  const auto est = estimate_positive_count(ch, ch.all_nodes(), rng);
  EXPECT_GE(est.estimate, 20.0);
  EXPECT_LE(est.estimate, 64.0);  // clamped to n
}

TEST(CountEstimation, MoreRepeatsTightenTheEstimate) {
  constexpr std::size_t kN = 256, kX = 40;
  const auto spread = [&](std::size_t repeats, std::uint64_t id) {
    MonteCarloConfig mc;
    mc.trials = 150;
    mc.experiment_id = id;
    return run_trials(mc, [repeats](RngStream& rng) {
             auto ch = ExactChannel::with_random_positives(kN, kX, rng);
             return estimate_positive_count(ch, ch.all_nodes(), rng, repeats)
                 .estimate;
           })
        .stddev();
  };
  EXPECT_GT(spread(8, 1), spread(64, 2));
}

TEST(IntervalQuery, VerdictMatchesGroundTruthOnGrid) {
  constexpr std::size_t kN = 64, kLo = 8, kHi = 24;
  for (std::size_t x = 0; x <= kN; x += 4) {
    RngStream rng(500 + x);
    auto ch = ExactChannel::with_random_positives(kN, x, rng);
    const auto out = run_interval_query(ch, ch.all_nodes(), kLo, kHi, rng);
    IntervalVerdict expected = IntervalVerdict::kInside;
    if (x < kLo) expected = IntervalVerdict::kBelow;
    if (x >= kHi) expected = IntervalVerdict::kAbove;
    EXPECT_EQ(out.verdict, expected) << "x=" << x;
    EXPECT_GT(out.queries, 0u);
  }
}

TEST(IntervalQuery, BelowCostsOneSession) {
  RngStream rng(4);
  auto ch = ExactChannel::with_random_positives(64, 0, rng);
  const auto out = run_interval_query(ch, ch.all_nodes(), 8, 24, rng);
  EXPECT_EQ(out.verdict, IntervalVerdict::kBelow);
  // One 2tBins elimination pass, no second session.
  EXPECT_LE(out.queries, 20u);
}

TEST(IntervalQuery, ToStringNames) {
  EXPECT_STREQ(to_string(IntervalVerdict::kBelow), "below");
  EXPECT_STREQ(to_string(IntervalVerdict::kInside), "inside");
  EXPECT_STREQ(to_string(IntervalVerdict::kAbove), "above");
}

TEST(IntervalQueryDeathTest, RejectsEmptyInterval) {
  RngStream rng(5);
  auto ch = ExactChannel::with_random_positives(16, 4, rng);
  EXPECT_DEATH(run_interval_query(ch, ch.all_nodes(), 8, 8, rng), "t_lo");
}

}  // namespace
}  // namespace tcast::core
