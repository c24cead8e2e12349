// Conformance audit of the counting portfolio:
//   * checked randomized sweeps (online invariants + count-outcome checks,
//     both models, with and without loss);
//   * counting differential mode (exact estimators = ground truth, x = 0
//     proven, on the loss-free tier);
//   * the threshold-via-count adapters against the direct threshold
//     algorithms on clean channels (satellite: registry-wide differential);
//   * the lossy-exactness gate: CheckedChannel must refuse estimators that
//     claim exact counts / confidence 1 on channels declaring lossy()
//     (mirroring the PR 2 ≥2-activity gate);
//   * the statistical (1±ε)-acceptance monitor at fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>

#include "conformance/count_monitor.hpp"
#include "conformance/harness.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::conformance {
namespace {

TEST(CountingConformance, SweepIsViolationFreeAcrossTheRegistry) {
  RngStream scenario_rng(0xc041, 21);
  for (std::size_t i = 0; i < 120; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/true);
    for (const auto& spec : core::counting_registry()) {
      const auto report = check_counting_algorithm(spec, sc);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(CountingConformance, DifferentialModeHoldsOnRandomScenarios) {
  RngStream scenario_rng(0xc042, 22);
  for (std::size_t i = 0; i < 80; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/true);
    for (const auto& report : counting_differential_check(sc)) {
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

// Satellite: adapter verdicts must match the direct threshold algorithms on
// clean channels. differential_check drives every registry entry — the
// count:* adapters included — and flags any decision diverging from ground
// truth, so unanimity here IS the adapter-vs-direct comparison.
TEST(CountingConformance, AdaptersAgreeWithDirectAlgorithmsCleanChannels) {
  RngStream scenario_rng(0xc043, 23);
  std::size_t adapters_seen = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    const auto reports = differential_check(sc);
    for (const auto& report : reports) {
      EXPECT_TRUE(report.ok()) << report.summary();
      if (report.algorithm.starts_with("count:")) ++adapters_seen;
    }
  }
  EXPECT_EQ(adapters_seen, 60 * core::counting_registry().size());
}

// Satellite: the lossy-exactness gate. A fabricated outcome claiming an
// exact count (or confidence 1) on a channel that declares lossy() must be
// rejected — silence under loss proves nothing, exactly like the ≥2
// activity inference PR 2 gated.
TEST(CountingConformance, CheckedChannelRefusesExactnessClaimsUnderLoss) {
  RngStream rng(0xc044);
  auto exact = group::ExactChannel::with_random_positives(16, 4, rng);
  faults::FaultyChannel lossy(exact, exact.all_nodes(),
                              *faults::FaultPlan::parse("iid=0.2"));
  CheckedChannel::Config cfg;
  cfg.exact_semantics = false;
  cfg.two_plus_activity_counts_two = false;
  CheckedChannel checked(lossy, exact.all_nodes(), cfg);

  core::CountOutcome claim;
  claim.estimate = 4.0;
  claim.exact = true;  // unsound: loss could have eaten the evidence
  claim.confidence = 1.0;
  claim.queries = 0;
  checked.check_count_outcome(claim);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.violations().front().category,
            Violation::Category::kTruth);
}

TEST(CountingConformance, RealEstimatorsNeverClaimExactnessUnderLoss) {
  RngStream scenario_rng(0xc045, 24);
  for (std::size_t i = 0; i < 60; ++i) {
    Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/true);
    if (!sc.lossy()) sc.loss_prob = 0.15;
    for (const auto& spec : core::counting_registry()) {
      const auto report = check_counting_algorithm(spec, sc);
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_FALSE(report.outcome.exact) << spec.name;
      EXPECT_LT(report.outcome.confidence, 1.0) << spec.name;
    }
  }
}

// The statistical (1±ε)-acceptance battery. Tolerance: over T fixed-seed
// trials the within-band count is Binomial(T, p) with p ≥ 1 − δ under the
// claim, so the empirical fraction must stay above
// 1 − δ − z·sqrt(δ(1−δ)/T); at z = 3 and T = 400 a correct estimator
// fails a cell with probability ≲ 1.3e-3 (see count_monitor.hpp for the
// full derivation). x ≥ 4 on the grid: below that the ±ε band spans less
// than one integer and the claim is vacuous either way.
TEST(CountingConformance, StatisticalEnvelopeHoldsOnTheGrid) {
  constexpr std::size_t kTrials = 400;
  const core::CountOptions opts;  // the claimed defaults: ε=0.35, δ=0.1
  const double floor = acceptance_floor(opts.delta, kTrials);
  for (const char* name : {"nz-geom", "geom-scan"}) {
    const auto* spec = core::find_counting_algorithm(name);
    ASSERT_NE(spec, nullptr);
    for (const std::size_t n : {128u, 512u}) {
      for (const std::size_t x :
           {std::size_t{4}, std::size_t{8}, std::size_t{16}, std::size_t{32},
            std::size_t{64}, n / 4}) {
        const auto report = measure_count_accuracy(
            *spec, n, x, kTrials, 0xe57 + n + 1000 * x, opts);
        EXPECT_GE(report.within_fraction(), floor)
            << name << " n=" << n << " x=" << x
            << " within=" << report.within
            << " mean_rel_err=" << report.mean_abs_rel_err;
      }
    }
  }
}

TEST(CountingConformance, ExactCounterIsAlwaysWithinBand) {
  const auto* spec = core::find_counting_algorithm("beep-exact");
  ASSERT_NE(spec, nullptr);
  const auto report = measure_count_accuracy(*spec, 128, 17, 100, 0xbee);
  EXPECT_EQ(report.within, report.trials);
  EXPECT_EQ(report.mean_abs_rel_err, 0.0);
  EXPECT_EQ(report.mean_estimate, 17.0);
}

}  // namespace
}  // namespace tcast::conformance
