// RNG-draw compatibility for the batched sweep engine (perf/sweep_engine):
// the lane-parallel, workspace-recycling sweep must consume exactly the
// draw sequence of the sequential fresh-construction engine — trial (p, i)
// always runs on RngStream(seed, trial_stream_id(experiment_id, i)),
// whatever lane executes it and whatever state the recycled workspace is
// in. Proven three ways:
//
//   1. The whole sweep grid, bitwise, against a hand-rolled sequential
//      loop that constructs a fresh channel per trial (the pre-batching
//      engine), across worker counts.
//   2. Per-trial: the persistent-engine entry point (run_with_engine on a
//      rebound RoundEngine) leaves the trial stream in exactly the state
//      the fresh-engine path leaves it — same outcome, same next raw word.
//   3. Draw-count accounting: a trial's stream, replayed standalone,
//      reaches the same state — so no lane can leak draws into a
//      neighbouring trial.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "core/round_engine.hpp"
#include "group/exact_channel.hpp"
#include "perf/sweep_engine.hpp"

namespace tcast::perf {
namespace {

QuerySweepSpec base_spec(const std::string& algorithm,
                         group::CollisionModel model) {
  QuerySweepSpec spec;
  spec.algorithm = algorithm;
  spec.n = 64;
  spec.trials = 30;
  spec.seed = 0xd0a30cafeULL;
  spec.channel.model = model;
  for (const std::size_t x : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                              std::size_t{16}, std::size_t{40},
                              std::size_t{64}})
    spec.points.push_back({x, 8, sweep_point_id(7, 2, x)});
  return spec;
}

/// The sequential reference: a fresh ExactChannel and a fresh engine per
/// trial, no workspace, no lanes — the draw-consumption ground truth.
std::vector<RunningStats> sequential_sweep(const QuerySweepSpec& spec) {
  const auto* algo = core::find_algorithm(spec.algorithm);
  std::vector<RunningStats> out(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    for (std::size_t i = 0; i < spec.trials; ++i) {
      RngStream rng(spec.seed,
                    trial_stream_id(spec.points[p].experiment_id, i));
      auto channel = group::ExactChannel::with_random_positives(
          spec.n, spec.points[p].x, rng, spec.channel);
      const auto outcome = algo->run(channel, channel.all_nodes(),
                                     spec.points[p].t, rng, spec.engine);
      out[p].add(static_cast<double>(outcome.queries));
    }
  }
  return out;
}

void expect_bitwise_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(SweepRngCompat, BatchedSweepMatchesSequentialFreshConstruction) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const auto model :
       {group::CollisionModel::kOnePlus, group::CollisionModel::kTwoPlus}) {
    for (const char* algorithm : {"2tbins", "expinc", "abns:2t", "oracle"}) {
      const QuerySweepSpec spec = base_spec(algorithm, model);
      const auto want = sequential_sweep(spec);
      for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, hw}) {
        ThreadPool pool(workers);
        QuerySweepSpec lane = spec;
        lane.pool = &pool;
        const auto got = run_query_sweep(lane);
        ASSERT_EQ(got.queries.size(), want.size());
        SCOPED_TRACE(std::string(algorithm) + " model=" +
                     group::to_string(model) +
                     " workers=" + std::to_string(workers));
        for (std::size_t p = 0; p < want.size(); ++p)
          expect_bitwise_equal(got.queries[p], want[p]);
      }
    }
  }
}

TEST(SweepRngCompat, PersistentEngineConsumesIdenticalDrawSequence) {
  // The sweep lane's persistent RoundEngine (rebind + run_with_engine) vs
  // the fresh-engine path every algorithm exposes through run(): same
  // outcome AND the trial stream parked on the same next word, for every
  // registry algorithm that has the engine entry point.
  for (const auto& spec : core::algorithm_registry()) {
    if (!spec.run_with_engine) continue;
    RngStream scratch(0xe6171, 0);
    group::ExactChannel fresh_ch(std::vector<bool>(48), scratch);
    group::ExactChannel reuse_ch(std::vector<bool>(48), scratch);
    core::RoundEngine engine(reuse_ch, scratch, {});
    for (std::size_t trial = 0; trial < 25; ++trial) {
      const std::size_t x = trial % 13;
      const std::size_t t = 6;

      RngStream fresh_rng(0xe6172, trial_stream_id(42, trial));
      fresh_ch.rebind_rng(fresh_rng);
      fresh_ch.assign_random_positives(x, fresh_rng);
      fresh_ch.reset_query_counter();
      const auto want =
          spec.run(fresh_ch, fresh_ch.all_nodes(), t, fresh_rng, {});
      const std::uint64_t want_word = fresh_rng.bits();

      RngStream reuse_rng(0xe6172, trial_stream_id(42, trial));
      reuse_ch.rebind_rng(reuse_rng);
      reuse_ch.assign_random_positives(x, reuse_rng);
      reuse_ch.reset_query_counter();
      engine.rebind(reuse_ch, reuse_rng, {});
      const auto got =
          spec.run_with_engine(engine, reuse_ch.all_nodes(), t);
      const std::uint64_t got_word = reuse_rng.bits();

      SCOPED_TRACE(spec.name + " trial " + std::to_string(trial));
      EXPECT_EQ(got.decision, want.decision);
      EXPECT_EQ(got.queries, want.queries);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.confirmed_positives, want.confirmed_positives);
      EXPECT_EQ(got.remaining_candidates, want.remaining_candidates);
      EXPECT_EQ(reuse_ch.queries_used(), fresh_ch.queries_used());
      EXPECT_EQ(got_word, want_word);
    }
  }
}

TEST(SweepRngCompat, TrialStreamsAreIsolatedAcrossLanes) {
  // Replaying any single trial standalone must land its stream on the same
  // word as during the full batched sweep — i.e. no trial's draws depend
  // on which trials ran before it on the same lane workspace. Spot-checked
  // by running the batch, then replaying each trial alone and comparing
  // the outcome it contributes.
  const QuerySweepSpec spec = base_spec("2tbins", group::CollisionModel::kOnePlus);
  const auto* algo = core::find_algorithm(spec.algorithm);
  const auto batch = run_query_sweep(spec);
  ASSERT_EQ(batch.queries.size(), spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    RunningStats replayed;
    for (std::size_t i = 0; i < spec.trials; ++i) {
      RngStream rng(spec.seed,
                    trial_stream_id(spec.points[p].experiment_id, i));
      auto channel = group::ExactChannel::with_random_positives(
          spec.n, spec.points[p].x, rng, spec.channel);
      const auto outcome = algo->run(channel, channel.all_nodes(),
                                     spec.points[p].t, rng, spec.engine);
      replayed.add(static_cast<double>(outcome.queries));
    }
    SCOPED_TRACE("point " + std::to_string(p));
    expect_bitwise_equal(batch.queries[p], replayed);
  }
}

}  // namespace
}  // namespace tcast::perf
