// Registry-wide SIMD differential suite: every algorithm, on randomized
// scenarios, must be bit-identical across every SIMD dispatch level this
// CPU supports — forced via simd::force_level() — on both the production
// ExactChannel (word image) and the test-only scalar ReferenceExactChannel.
// The observable surface is the same one the fast-path differential locks
// down: decision, every ThresholdOutcome counter, the channel's query
// count, and the post-run RNG word (same draw consumption).
//
// A second suite runs the full conformance harness — CheckedChannel with
// all monitors online — at every forced level, proving the vector kernels
// don't just agree with each other but stay inside the paper's soundness
// contract under adversarial checking.
//
// CI runs this under the sanitizer matrix via `ctest -L conformance`.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "common/simd_kernels.hpp"
#include "conformance/harness.hpp"
#include "conformance/scenario.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "reference_exact_channel.hpp"

namespace tcast::conformance {
namespace {

class ForcedLevel {
 public:
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::clear_forced_level(); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
};

struct RunRecord {
  core::ThresholdOutcome outcome;
  QueryCount channel_queries = 0;
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

RunRecord run_scenario(const Scenario& sc, const core::AlgorithmSpec& spec,
                       bool reference) {
  RngStream rng(sc.seed, 0x51D);
  if (reference) {
    ReferenceExactChannel channel(sc.n, sc.x, rng, sc.model);
    return record(channel, channel.all_nodes(), sc, spec, rng);
  }
  group::ExactChannel::Config cfg;
  cfg.model = sc.model;
  auto channel =
      group::ExactChannel::with_random_positives(sc.n, sc.x, rng, cfg);
  return record(channel, channel.all_nodes(), sc, spec, rng);
}

void expect_identical(const RunRecord& got, const RunRecord& want) {
  EXPECT_EQ(got.outcome.decision, want.outcome.decision);
  EXPECT_EQ(got.outcome.queries, want.outcome.queries);
  EXPECT_EQ(got.outcome.rounds, want.outcome.rounds);
  EXPECT_EQ(got.outcome.confirmed_positives, want.outcome.confirmed_positives);
  EXPECT_EQ(got.outcome.remaining_candidates,
            want.outcome.remaining_candidates);
  EXPECT_EQ(got.outcome.retries, want.outcome.retries);
  EXPECT_EQ(got.outcome.faults_seen, want.outcome.faults_seen);
  EXPECT_EQ(got.channel_queries, want.channel_queries);
  EXPECT_EQ(got.next_rng_word, want.next_rng_word);
}

TEST(SimdDifferential, RegistryWideAllLevelsMatchScalarReference) {
  const auto levels = simd::supported_levels();
  RngStream scenario_rng(0x51Dfa57, 7);
  for (std::size_t i = 0; i < 40; ++i) {
    const Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    for (const auto& spec : core::algorithm_registry()) {
      // Ground truth: the scalar reference channel under the portable
      // kernels — the configuration with no explicit SIMD anywhere.
      RunRecord want;
      {
        ForcedLevel forced(simd::Level::kPortable);
        want = run_scenario(sc, spec, /*reference=*/true);
      }
      for (const simd::Level level : levels) {
        ForcedLevel forced(level);
        for (const bool reference : {true, false}) {
          SCOPED_TRACE(spec.name + " level=" + simd::to_string(level) +
                       (reference ? " reference" : " production") + " [" +
                       sc.describe() + "]");
          expect_identical(run_scenario(sc, spec, reference), want);
        }
      }
    }
  }
}

TEST(SimdDifferential, ConformanceHarnessPassesAtEveryForcedLevel) {
  for (const simd::Level level : simd::supported_levels()) {
    ForcedLevel forced(level);
    RngStream per_level(0x51Dfa58, 9);  // same scenarios at every level
    for (std::size_t i = 0; i < 8; ++i) {
      const Scenario sc = random_scenario(per_level, /*allow_lossy=*/false);
      for (const auto& spec : core::algorithm_registry()) {
        const auto report = check_algorithm(spec, sc);
        EXPECT_TRUE(report.ok())
            << spec.name << " level=" << simd::to_string(level) << " ["
            << sc.describe() << "]\n"
            << report.summary();
      }
    }
  }
}

}  // namespace
}  // namespace tcast::conformance
