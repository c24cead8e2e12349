// Sec. VI probabilistic threshold test: accuracy, repeat scaling, plans.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/bimodal.hpp"
#include "common/monte_carlo.hpp"
#include "core/probabilistic_threshold.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

using analysis::BimodalDistribution;
using group::ExactChannel;

/// One bimodal trial: draw x from the distribution, run the probabilistic
/// test, score the decision against the generating mode.
bool one_trial(RngStream& rng, const BimodalDistribution& dist, std::size_t n,
               std::size_t repeats) {
  const auto sample = dist.sample(n, rng);
  auto ch = ExactChannel::with_random_positives(n, sample.x, rng);
  ProbabilisticThresholdOptions opts;
  std::tie(opts.t_l, opts.t_r) = dist.decision_boundaries();
  opts.repeats = repeats;
  const auto out =
      run_probabilistic_threshold(ch, ch.all_nodes(), opts, rng);
  return out.high_mode == sample.from_high_mode;
}

double accuracy(const BimodalDistribution& dist, std::size_t n,
                std::size_t repeats, std::uint64_t id) {
  MonteCarloConfig mc;
  mc.trials = 600;
  mc.experiment_id = id;
  return run_bool_trials(mc, [&dist, n, repeats](RngStream& rng) {
           return one_trial(rng, dist, n, repeats);
         })
      .value();
}

TEST(Probabilistic, QueryCountEqualsRepeatsExactly) {
  RngStream rng(1);
  auto ch = ExactChannel::with_random_positives(128, 96, rng);
  ProbabilisticThresholdOptions opts;
  opts.t_l = 20;
  opts.t_r = 90;
  opts.repeats = 12;
  const auto out = run_probabilistic_threshold(ch, ch.all_nodes(), opts, rng);
  EXPECT_EQ(out.queries, 12u);
  EXPECT_EQ(ch.queries_used(), 12u);
}

TEST(Probabilistic, WellSeparatedModesAreAccurate) {
  const auto dist = BimodalDistribution::symmetric(128, 48.0, 4.0);
  EXPECT_GE(accuracy(dist, 128, 9, 1), 0.9);  // paper: ≥90% for d > 32, r = 9
}

TEST(Probabilistic, AccuracyImprovesWithRepeats) {
  const auto dist = BimodalDistribution::symmetric(128, 24.0, 4.0);
  const double r1 = accuracy(dist, 128, 1, 10);
  const double r9 = accuracy(dist, 128, 9, 11);
  const double r19 = accuracy(dist, 128, 19, 12);
  EXPECT_GT(r9, r1);
  EXPECT_GE(r19, r9 - 0.02);  // monotone up to noise
}

TEST(Probabilistic, CloseModesAreHard) {
  // Paper: "when d ≈ 8, the probabilistic algorithm has a great difficulty
  // ... accuracies as low as 70%".
  const auto near = BimodalDistribution::symmetric(128, 8.0, 4.0);
  const auto far = BimodalDistribution::symmetric(128, 48.0, 4.0);
  EXPECT_LT(accuracy(near, 128, 9, 20), accuracy(far, 128, 9, 21));
}

TEST(Probabilistic, HighModeDetectedForLargeX) {
  RngStream rng(2);
  auto ch = ExactChannel::with_random_positives(128, 110, rng);
  ProbabilisticThresholdOptions opts;
  opts.t_l = 16;
  opts.t_r = 96;
  opts.repeats = 15;
  EXPECT_TRUE(
      run_probabilistic_threshold(ch, ch.all_nodes(), opts, rng).high_mode);
}

TEST(Probabilistic, LowModeDetectedForZeroX) {
  RngStream rng(3);
  auto ch = ExactChannel::with_random_positives(128, 0, rng);
  ProbabilisticThresholdOptions opts;
  opts.t_l = 16;
  opts.t_r = 96;
  opts.repeats = 15;
  EXPECT_FALSE(
      run_probabilistic_threshold(ch, ch.all_nodes(), opts, rng).high_mode);
}

TEST(Probabilistic, PlanFieldsAreConsistent) {
  RngStream rng(4);
  auto ch = ExactChannel::with_random_positives(64, 10, rng);
  ProbabilisticThresholdOptions opts;
  opts.t_l = 8;
  opts.t_r = 40;
  opts.repeats = 5;
  const auto out = run_probabilistic_threshold(ch, ch.all_nodes(), opts, rng);
  EXPECT_GT(out.plan.b, 1.0);
  EXPECT_GT(out.plan.q_high, out.plan.q_low);
  EXPECT_LE(out.nonempty_seen, 5u);
}

}  // namespace
}  // namespace tcast::core
