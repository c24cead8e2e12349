// The registry-driven conformance sweep: every algorithm in
// core::algorithm_registry() is driven through ≥200 randomized scenarios
// (population, positives, threshold, collision model, engine options, and
// injected loss) under a CheckedChannel, which asserts the full invariant
// set online — see docs/CONFORMANCE.md. A failure prints the replayable
// scenario description.
#include <gtest/gtest.h>

#include "conformance/harness.hpp"
#include "group/exact_channel.hpp"
#include "group/instrumented_channel.hpp"

namespace tcast::conformance {
namespace {

constexpr std::size_t kScenariosPerAlgorithm = 240;

class ConformanceSweep
    : public ::testing::TestWithParam<const core::AlgorithmSpec*> {};

TEST_P(ConformanceSweep, RandomizedScenariosSatisfyAllInvariants) {
  const core::AlgorithmSpec& spec = *GetParam();
  RngStream scenario_rng(0xc0f0c0f0ULL, 7);
  std::size_t exact_runs = 0;
  for (std::size_t i = 0; i < kScenariosPerAlgorithm; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/true);
    if (!sc.lossy()) ++exact_runs;
    const auto report = check_algorithm(spec, sc);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
  // The mix must actually exercise the strict (exact-semantics) checks.
  EXPECT_GT(exact_runs, kScenariosPerAlgorithm / 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredAlgorithms, ConformanceSweep,
    ::testing::ValuesIn([] {
      std::vector<const core::AlgorithmSpec*> specs;
      for (const auto& spec : core::algorithm_registry())
        specs.push_back(&spec);
      return specs;
    }()),
    [](const ::testing::TestParamInfo<const core::AlgorithmSpec*>& param) {
      std::string name = param.param->name;
      for (char& c : name)
        if (c == ':' || c == '-') c = '_';
      return name;
    });

TEST(ConformanceSweep, CoversEveryRegisteredAlgorithm) {
  // The parameterized suite above is instantiated straight from the
  // registry; this guards against an accidentally empty instantiation.
  EXPECT_GE(core::algorithm_registry().size(), 8u);
}

TEST(CheckedChannelTranscript, AnnouncementsRecordFullBinStructure) {
  // InstrumentedChannel must keep the announced bin partition, not just a
  // counter, and a CheckedChannel over it must forward every announce.
  RngStream rng(99, 0);
  auto exact = group::ExactChannel::with_random_positives(24, 10, rng);
  group::InstrumentedChannel instr(exact);
  CheckedChannel checked(instr, exact.all_nodes());
  const auto* spec = core::find_algorithm("2tbins");
  ASSERT_NE(spec, nullptr);
  const auto out =
      spec->run(checked, exact.all_nodes(), 4, rng, core::EngineOptions{});
  EXPECT_TRUE(checked.ok());
  EXPECT_TRUE(out.decision);

  const auto& announcements = instr.announcements();
  ASSERT_FALSE(announcements.empty());
  // Every announcement carries the full partition: 2t bins in round one,
  // jointly covering all 24 candidates exactly once.
  const auto& first = announcements.front();
  EXPECT_EQ(first.bins.size(), 8u);  // 2t = 8
  EXPECT_EQ(first.at_query, 0u);
  std::size_t covered = 0;
  std::vector<char> seen(24, 0);
  for (const auto& bin : first.bins) {
    for (const NodeId id : bin) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(id)]);
      seen[static_cast<std::size_t>(id)] = 1;
      ++covered;
    }
  }
  EXPECT_EQ(covered, 24u);
  // And the transcript still records per-query results alongside.
  EXPECT_EQ(instr.transcript().size(), static_cast<std::size_t>(out.queries));
}

TEST(CheckedChannel, LossyRunsKeepOneSidedSoundness) {
  // Dedicated lossy sweep: heavy loss, every algorithm; `true` answers must
  // stay certificates even when silence lies. The tally aggregates the
  // wrong answers per algorithm and histograms them by loss rate — the
  // per-scenario degradation profile of the sweep.
  RngStream scenario_rng(0x10555ULL, 3);
  WrongAnswerTally tally;
  for (std::size_t i = 0; i < 160; ++i) {
    Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    sc.loss_prob = 0.35;
    sc.seed = scenario_rng.bits();
    for (const auto& spec : core::algorithm_registry()) {
      const auto report = check_algorithm(spec, sc);
      EXPECT_TRUE(report.ok()) << report.summary();
      tally.record(spec.name, sc, report.outcome);
    }
  }
  // The tally must agree with the one-sided invariant: loss produces false
  // "no" answers (they are the price of silence lying) but never a false
  // "yes" — and at 35% loss the sweep does visibly degrade.
  EXPECT_EQ(tally.false_yes(), 0u) << tally.report();
  EXPECT_GT(tally.false_no(), 0u) << tally.report();
  RecordProperty("wrong_answer_report", tally.report());
}

TEST(WrongAnswerTally, ExactSweepHasCleanProfile) {
  // On the exact tier the same tally must stay empty in both columns.
  RngStream scenario_rng(0x7157ULL, 5);
  WrongAnswerTally tally;
  for (std::size_t i = 0; i < 40; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    for (const auto& spec : core::algorithm_registry()) {
      const auto report = check_algorithm(spec, sc);
      EXPECT_TRUE(report.ok()) << report.summary();
      tally.record(spec.name, sc, report.outcome);
    }
  }
  EXPECT_EQ(tally.false_yes(), 0u) << tally.report();
  EXPECT_EQ(tally.false_no(), 0u) << tally.report();
  EXPECT_EQ(tally.runs(), 40 * core::algorithm_registry().size());
  // The report renders the per-algorithm table either way.
  EXPECT_NE(tally.report().find("wrong answers over"), std::string::npos);
}

}  // namespace
}  // namespace tcast::conformance
