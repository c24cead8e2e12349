// Differential proof for the NodeSet fast path (group/exact_channel.hpp):
// with identical seeds, every registry algorithm must produce bit-identical
// results whether the production ExactChannel answers queries through its
// word image or the test-only ReferenceExactChannel answers them with a
// scalar per-member walk. "Bit-identical" is the full observable surface:
// the decision, every ThresholdOutcome counter, the channel's query count,
// and the post-run RNG state (same number of draws consumed — proven by
// comparing the next raw output word).
//
// A second suite proves the batched sweep engine (perf/sweep_engine.hpp)
// inherits the property: it agrees bitwise with a plain per-trial loop over
// fresh reference channels for every worker count, so workspace recycling
// is unobservable too.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "conformance/scenario.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "perf/sweep_engine.hpp"
#include "reference_exact_channel.hpp"

namespace tcast::conformance {
namespace {

struct RunRecord {
  core::ThresholdOutcome outcome;
  QueryCount channel_queries = 0;
  /// One raw engine word drawn AFTER the run: equal iff both runs consumed
  /// the same number of draws from the same stream.
  std::uint64_t next_rng_word = 0;
};

RunRecord record(group::QueryChannel& channel, std::span<const NodeId> nodes,
                 const Scenario& sc, const core::AlgorithmSpec& spec,
                 RngStream& rng) {
  RunRecord rec;
  rec.outcome = spec.run(channel, nodes, sc.t, rng, sc.engine_options());
  rec.channel_queries = channel.queries_used();
  rec.next_rng_word = rng.bits();
  return rec;
}

RunRecord run_production(const Scenario& sc,
                         const core::AlgorithmSpec& spec) {
  RngStream rng(sc.seed, 0x9e77);
  group::ExactChannel::Config cfg;
  cfg.model = sc.model;
  auto channel =
      group::ExactChannel::with_random_positives(sc.n, sc.x, rng, cfg);
  return record(channel, channel.all_nodes(), sc, spec, rng);
}

RunRecord run_reference(const Scenario& sc, const core::AlgorithmSpec& spec) {
  RngStream rng(sc.seed, 0x9e77);
  ReferenceExactChannel channel(sc.n, sc.x, rng, sc.model);
  return record(channel, channel.all_nodes(), sc, spec, rng);
}

void expect_identical(const RunRecord& fast, const RunRecord& ref) {
  EXPECT_EQ(fast.outcome.decision, ref.outcome.decision);
  EXPECT_EQ(fast.outcome.queries, ref.outcome.queries);
  EXPECT_EQ(fast.outcome.rounds, ref.outcome.rounds);
  EXPECT_EQ(fast.outcome.confirmed_positives, ref.outcome.confirmed_positives);
  EXPECT_EQ(fast.outcome.remaining_candidates,
            ref.outcome.remaining_candidates);
  EXPECT_EQ(fast.outcome.retries, ref.outcome.retries);
  EXPECT_EQ(fast.outcome.faults_seen, ref.outcome.faults_seen);
  EXPECT_EQ(fast.channel_queries, ref.channel_queries);
  EXPECT_EQ(fast.next_rng_word, ref.next_rng_word);
}

TEST(FastPathDifferential, RegistryWideFastMatchesReference) {
  RngStream scenario_rng(0xfa57, 31);
  for (std::size_t i = 0; i < 150; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    for (const auto& spec : core::algorithm_registry()) {
      SCOPED_TRACE(spec.name + " on [" + sc.describe() + "]");
      expect_identical(run_production(sc, spec), run_reference(sc, spec));
    }
  }
}

TEST(FastPathDifferential, WideBinCountsFallBackIdentically) {
  // bins > kMaxBinsForWords disables the word image, so this exercises the
  // fast path's span route (still .at()-free) against the reference on the
  // largest populations the scenario vocabulary allows, with thresholds
  // driving 2t well past 64 bins.
  RngStream scenario_rng(0xfa57, 32);
  for (std::size_t i = 0; i < 40; ++i) {
    Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    sc.n = 96;
    sc.t = 48 + scenario_rng.uniform_below(49);  // 2t ∈ [96, 192] bins
    if (sc.x > sc.n) sc.x = sc.n;
    for (const auto& spec : core::algorithm_registry()) {
      SCOPED_TRACE(spec.name + " on [" + sc.describe() + "]");
      expect_identical(run_production(sc, spec), run_reference(sc, spec));
    }
  }
}

void expect_bitwise_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
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

perf::QuerySweepSpec sweep_spec(const std::string& algorithm,
                                group::CollisionModel model) {
  perf::QuerySweepSpec spec;
  spec.algorithm = algorithm;
  spec.n = 96;
  spec.trials = 50;  // not a multiple of any chunk size
  spec.seed = 0xabad1dea;
  spec.channel.model = model;
  for (const std::size_t x : {std::size_t{0}, std::size_t{5}, std::size_t{16},
                              std::size_t{48}, std::size_t{96}})
    spec.points.push_back({x, 16, perf::sweep_point_id(9, 1, x)});
  return spec;
}

/// The sweep without the engine: one fresh reference channel per trial, on
/// the trial's own stream, reduced point by point in trial order.
std::vector<RunningStats> reference_sweep(const perf::QuerySweepSpec& spec) {
  const auto* algo = core::find_algorithm(spec.algorithm);
  std::vector<RunningStats> queries(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const perf::SweepPoint& point = spec.points[p];
    for (std::size_t i = 0; i < spec.trials; ++i) {
      RngStream rng(spec.seed, trial_stream_id(point.experiment_id, i));
      ReferenceExactChannel channel(spec.n, point.x, rng, spec.channel.model);
      const auto outcome =
          algo->run(channel, channel.all_nodes(), point.t, rng, spec.engine);
      queries[p].add(static_cast<double>(outcome.queries));
    }
  }
  return queries;
}

TEST(FastPathDifferential, SweepEngineFastMatchesReferenceAcrossWorkerCounts) {
  for (const auto model :
       {group::CollisionModel::kOnePlus, group::CollisionModel::kTwoPlus}) {
    for (const char* algorithm : {"2tbins", "expinc"}) {
      const auto reference = reference_sweep(sweep_spec(algorithm, model));
      for (const std::size_t workers : worker_counts_under_test()) {
        ThreadPool pool(workers);
        perf::QuerySweepSpec fast = sweep_spec(algorithm, model);
        fast.pool = &pool;
        const auto got = perf::run_query_sweep(fast);
        ASSERT_EQ(got.queries.size(), reference.size());
        SCOPED_TRACE(std::string(algorithm) + " model=" +
                     group::to_string(model) +
                     " workers=" + std::to_string(workers));
        for (std::size_t p = 0; p < got.queries.size(); ++p)
          expect_bitwise_equal(got.queries[p], reference[p]);
      }
    }
  }
}

}  // namespace
}  // namespace tcast::conformance
