// The emulated Fig-4 bench: one backcast PacketChannel reused across runs
// with predicates set afresh before each, its bins judged against ground
// truth (also under cross-traffic), and the experiment driver built on it.
#include <gtest/gtest.h>

#include "core/two_t_bins.hpp"
#include "group/instrumented_channel.hpp"
#include "group/packet_channel.hpp"
#include "testbed/experiment.hpp"

namespace tcast::testbed {
namespace {

/// One 2tBins session as the bench runs it: bins in natural order.
core::ThresholdOutcome run_session(group::QueryChannel& channel,
                                   std::span<const NodeId> nodes,
                                   std::size_t t, RngStream& rng) {
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  return core::run_two_t_bins(channel, nodes, t, rng, opts);
}

std::size_t positives_in(std::span<const NodeId> nodes,
                         const std::vector<bool>& positive) {
  std::size_t k = 0;
  for (const NodeId id : nodes)
    if (positive[static_cast<std::size_t>(id)]) ++k;
  return k;
}

/// A bench of ideal radios, under cross-traffic of the given duty cycle.
group::PacketChannel::Config ideal_bench(std::uint64_t seed,
                                         double duty = 0.0) {
  group::PacketChannel::Config cfg;
  cfg.seed = seed;
  cfg.channel.hack = radio::HackReceptionModel::ideal();
  cfg.interference_duty = duty;
  return cfg;
}

TEST(Testbed, IdealBenchAnswersCorrectlyAcrossGrid) {
  group::PacketChannel bench(std::vector<bool>(12, false), ideal_bench(1));
  RngStream workload(7);
  RngStream rng(1);
  for (std::size_t t : {2u, 4u, 6u}) {
    for (std::size_t x = 0; x <= 12; x += 2) {
      std::vector<bool> positive(12, false);
      for (const NodeId id : workload.sample_subset(12, x))
        positive[static_cast<std::size_t>(id)] = true;
      for (const NodeId id : bench.all_nodes())
        bench.set_positive(id, positive[static_cast<std::size_t>(id)]);
      const auto outcome = run_session(bench, bench.all_nodes(), t, rng);
      EXPECT_EQ(outcome.decision, x >= t) << "t=" << t << " x=" << x;
    }
  }
}

TEST(Testbed, BinEventsRecordGroundTruth) {
  const std::vector<bool> positive = {true, true, false, false, false, false};
  group::PacketChannel bench(positive, ideal_bench(1));
  group::InstrumentedChannel traced(bench);
  RngStream rng(1);
  run_session(traced, bench.all_nodes(), 2, rng);
  ASSERT_FALSE(traced.transcript().empty());
  for (const auto& record : traced.transcript())
    EXPECT_EQ(record.result.nonempty(),
              positives_in(record.nodes, positive) > 0);
}

TEST(Testbed, IrregularBenchOnlyFalseNegatives) {
  group::PacketChannel::Config cfg;
  cfg.seed = 3;
  cfg.channel.hack = radio::HackReceptionModel();  // calibrated
  group::PacketChannel bench(std::vector<bool>(12, false), cfg);
  group::InstrumentedChannel traced(bench);
  RngStream workload(11);
  RngStream rng(3);
  std::size_t phantom = 0, queried = 0;
  for (int run = 0; run < 40; ++run) {
    std::vector<bool> positive(12, false);
    for (const NodeId id : workload.sample_subset(12, 6))
      positive[static_cast<std::size_t>(id)] = true;
    for (const NodeId id : bench.all_nodes())
      bench.set_positive(id, positive[static_cast<std::size_t>(id)]);
    traced.clear();
    run_session(traced, bench.all_nodes(), 4, rng);
    for (const auto& record : traced.transcript()) {
      ++queried;
      if (positives_in(record.nodes, positive) == 0 &&
          record.result.nonempty())
        ++phantom;
    }
  }
  EXPECT_GT(queried, 0u);
  EXPECT_EQ(phantom, 0u);  // backcast cannot false-positive
}

TEST(TestbedInterference, FalseNegativesAppearUnderHeavyTraffic) {
  group::PacketChannel bench(std::vector<bool>(8, true), ideal_bench(3, 0.4));
  group::InstrumentedChannel traced(bench);
  RngStream rng(3);
  std::size_t missed = 0, queried = 0;
  for (int run = 0; run < 25; ++run) {
    traced.clear();
    run_session(traced, bench.all_nodes(), 4, rng);
    for (const auto& record : traced.transcript()) {
      if (record.nodes.empty()) continue;  // every node is positive
      ++queried;
      if (!record.result.nonempty()) ++missed;
    }
  }
  EXPECT_GT(queried, 0u);
  EXPECT_GT(missed, 0u);  // HACKs do get clobbered at 40% duty
}

TEST(TestbedInterference, CleanBenchUnaffectedByZeroDuty) {
  group::PacketChannel bench(
      {true, true, true, true, false, false, false, false}, ideal_bench(4));
  RngStream rng(4);
  EXPECT_TRUE(run_session(bench, bench.all_nodes(), 4, rng).decision);
}

TEST(MoteExperiment, SmallRunProducesFullGrid) {
  MoteExperimentConfig cfg;
  cfg.participants = 6;
  cfg.thresholds = {2, 3};
  cfg.runs_per_point = 5;
  const auto results = run_mote_experiment(cfg);
  EXPECT_EQ(results.points.size(), 2u * 7u);  // 2 thresholds × x ∈ [0,6]
  EXPECT_EQ(results.total_runs, 2u * 7u * 5u);
  EXPECT_GT(results.total_queries, 0u);
  for (const auto& p : results.points) EXPECT_EQ(p.runs, 5u);
}

TEST(MoteExperiment, IdealRadioNeverErrs) {
  // The paper's bench (12 participants, t ∈ {2, 4, 6}), one world per t
  // reused across runs: every run answers x ≥ t, and every queried bin is
  // in the census and reads as its truth.
  MoteExperimentConfig cfg;
  cfg.runs_per_point = 10;
  cfg.radio_irregularity = false;
  const auto results = run_mote_experiment(cfg);
  EXPECT_EQ(results.total_runs, 3u * 13u * 10u);
  EXPECT_EQ(results.false_negative_runs, 0u);
  EXPECT_EQ(results.false_positive_runs, 0u);
  std::size_t queried = 0;
  for (const auto& entry : results.census) {
    queried += entry.queried;
    EXPECT_EQ(entry.missed, 0u);
    EXPECT_EQ(entry.phantom, 0u);
  }
  EXPECT_EQ(queried, results.total_queries);
}

TEST(MoteExperiment, IrregularRadioErrorProfileMatchesPaper) {
  // Full-size run (smaller repeat count for test speed): error rate in low
  // single-digit percent, zero false positives, misses dominated by k = 1.
  MoteExperimentConfig cfg;
  cfg.participants = 12;
  cfg.thresholds = {2, 4, 6};
  cfg.runs_per_point = 12;
  const auto results = run_mote_experiment(cfg);
  EXPECT_EQ(results.false_positive_runs, 0u);
  EXPECT_LT(results.run_error_rate(), 0.06);
  std::size_t missed_k1 = 0, missed_rest = 0;
  for (const auto& entry : results.census) {
    EXPECT_EQ(entry.phantom, 0u);
    if (entry.k == 1)
      missed_k1 += entry.missed;
    else
      missed_rest += entry.missed;
  }
  EXPECT_GE(missed_k1, missed_rest);
}

}  // namespace
}  // namespace tcast::testbed
