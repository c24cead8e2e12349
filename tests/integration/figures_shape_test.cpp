// The paper's evaluation claims as regression tests.
//
// Each test asserts the *shape* a figure reports (who wins, where the
// crossovers sit) at reduced trial counts, so a change that silently breaks
// the science — not just the code — fails CI. EXPERIMENTS.md documents the
// same claims with full-trial numbers.
#include <gtest/gtest.h>

#include "analysis/bimodal.hpp"
#include "common/monte_carlo.hpp"
#include "core/abns.hpp"
#include "core/baselines.hpp"
#include "core/oracle.hpp"
#include "core/probabilistic_abns.hpp"
#include "core/probabilistic_threshold.hpp"
#include "core/registry.hpp"
#include "core/two_t_bins.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

using group::CollisionModel;
using group::ExactChannel;

constexpr std::size_t kN = 128, kT = 16;
constexpr std::size_t kTrials = 250;

double mean_queries(const char* algo, CollisionModel model, std::size_t x,
                    std::uint64_t id, std::size_t t = kT) {
  const auto* spec = find_algorithm(algo);
  MonteCarloConfig mc;
  mc.trials = kTrials;
  mc.experiment_id = id;
  return run_trials(mc, [&spec, model, x, t](RngStream& rng) {
           ExactChannel::Config cfg;
           cfg.model = model;
           auto ch = ExactChannel::with_random_positives(kN, x, rng, cfg);
           return static_cast<double>(
               spec->run(ch, ch.all_nodes(), t, rng, EngineOptions{})
                   .queries);
         })
      .mean();
}

TEST(Fig1Shape, TcastPeaksAtThresholdAndFlattensToT) {
  const double at_zero = mean_queries("2tbins", CollisionModel::kOnePlus, 0, 1);
  const double at_peak =
      mean_queries("2tbins", CollisionModel::kOnePlus, kT - 2, 2);
  const double at_large =
      mean_queries("2tbins", CollisionModel::kOnePlus, 96, 3);
  EXPECT_GT(at_peak, at_zero * 2);
  EXPECT_NEAR(at_large, static_cast<double>(kT), 0.5);
}

TEST(Fig1Shape, ExpIncreaseWinsSmallXLosesLargeX) {
  EXPECT_LT(mean_queries("expinc", CollisionModel::kOnePlus, 1, 4),
            mean_queries("2tbins", CollisionModel::kOnePlus, 1, 5));
  EXPECT_GT(mean_queries("expinc", CollisionModel::kOnePlus, 100, 6),
            mean_queries("2tbins", CollisionModel::kOnePlus, 100, 7));
}

TEST(Fig1Shape, CsmaScalesWithXAndCrossesTcast) {
  MonteCarloConfig mc;
  mc.trials = kTrials;
  const auto csma = [&mc](std::size_t x, std::uint64_t id) {
    mc.experiment_id = id;
    return run_trials(mc, [x](RngStream& rng) {
             return static_cast<double>(
                 run_csma_baseline(kN, x, kT, rng).slots);
           })
        .mean();
  };
  const double small = csma(2, 10);
  const double large = csma(100, 11);
  EXPECT_LT(small, mean_queries("2tbins", CollisionModel::kOnePlus, 2, 12));
  EXPECT_GT(large, 3 * mean_queries("2tbins", CollisionModel::kOnePlus, 100,
                                    13));
}

TEST(Fig1Shape, SequentialStartsNearNMinusX) {
  MonteCarloConfig mc;
  mc.trials = kTrials;
  mc.experiment_id = 14;
  const double at_small = run_trials(mc, [](RngStream& rng) {
                            return static_cast<double>(
                                run_sequential_baseline(kN, 2, kT, rng)
                                    .slots);
                          }).mean();
  EXPECT_GT(at_small, 100.0);
}

TEST(Fig2Shape, TwoPlusDominatesOnePlusWithPeakGapNearT) {
  double max_gap = 0.0;
  std::size_t argmax = 0;
  for (std::size_t x = 2; x <= 40; x += 4) {
    const double one =
        mean_queries("2tbins", CollisionModel::kOnePlus, x, 20 + x);
    const double two =
        mean_queries("2tbins", CollisionModel::kTwoPlus, x, 60 + x);
    EXPECT_LE(two, one * 1.05) << "x=" << x;  // 2+ never meaningfully worse
    if (one - two > max_gap) {
      max_gap = one - two;
      argmax = x;
    }
  }
  EXPECT_GE(argmax, 8u);   // the biggest win sits near x ≈ t
  EXPECT_LE(argmax, 24u);
}

TEST(Fig5Shape, TwoTBinsTracksOracleAboveHalfT) {
  for (const std::size_t x : {12u, 20u, 32u}) {
    const double tb = mean_queries("2tbins", CollisionModel::kOnePlus, x,
                                   100 + x);
    const double oracle = mean_queries("oracle", CollisionModel::kOnePlus, x,
                                       140 + x);
    EXPECT_LE(tb, oracle * 1.25) << "x=" << x;
  }
  // ...and the gap opens at small x.
  const double tb0 = mean_queries("2tbins", CollisionModel::kOnePlus, 0, 180);
  const double or0 = mean_queries("oracle", CollisionModel::kOnePlus, 0, 181);
  EXPECT_GT(tb0, or0 * 5);
}

TEST(Fig6Shape, ProbAbnsNearOracleAtBothEdges) {
  for (const std::size_t x : {0u, 2u, 20u, 48u}) {
    const double prob = mean_queries("prob-abns", CollisionModel::kOnePlus,
                                     x, 200 + x);
    const double oracle = mean_queries("oracle", CollisionModel::kOnePlus, x,
                                       260 + x);
    EXPECT_LE(prob, oracle + 0.35 * oracle + 8.0) << "x=" << x;
  }
}

TEST(Fig7Shape, ProbAbnsBeatsCsmaAboveThreshold) {
  constexpr std::size_t n = 32, t = 8;
  MonteCarloConfig mc;
  mc.trials = kTrials;
  for (const std::size_t x : {16u, 32u}) {
    mc.experiment_id = 300 + x;
    const double csma = run_trials(mc, [x, n, t](RngStream& rng) {
                          return static_cast<double>(
                              run_csma_baseline(n, x, t, rng).slots);
                        }).mean();
    mc.experiment_id = 340 + x;
    const double prob = run_trials(mc, [x, n, t](RngStream& rng) {
                          auto ch =
                              ExactChannel::with_random_positives(n, x, rng);
                          return static_cast<double>(
                              run_probabilistic_abns(ch, ch.all_nodes(), t,
                                                     rng)
                                  .queries);
                        }).mean();
    EXPECT_LT(prob * 2, csma) << "x=" << x;
  }
}

TEST(Fig9Shape, AccuracyGrowsWithSeparationAndRepeats) {
  const auto accuracy = [](double d, std::size_t repeats, std::uint64_t id) {
    const auto dist = analysis::BimodalDistribution::symmetric(kN, d, 4.0);
    MonteCarloConfig mc;
    mc.trials = kTrials;
    mc.experiment_id = id;
    return run_bool_trials(mc, [&dist, repeats](RngStream& rng) {
             const auto sample = dist.sample(kN, rng);
             auto ch =
                 ExactChannel::with_random_positives(kN, sample.x, rng);
             ProbabilisticThresholdOptions popts;
             std::tie(popts.t_l, popts.t_r) = dist.decision_boundaries();
             popts.repeats = repeats;
             return run_probabilistic_threshold(ch, ch.all_nodes(), popts,
                                                rng)
                        .high_mode == sample.from_high_mode;
           })
        .value();
  };
  EXPECT_GE(accuracy(48.0, 9, 400), 0.9);   // paper: d > 32, r = 9 ⇒ ≥90%
  EXPECT_LE(accuracy(8.0, 9, 401), 0.8);    // paper: d ≈ 8 is hard
  EXPECT_GT(accuracy(24.0, 19, 402), accuracy(24.0, 1, 403));
}

}  // namespace
}  // namespace tcast::core
