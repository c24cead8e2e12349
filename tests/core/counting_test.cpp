// Unit tests for the counting portfolio (core/counting): registry shape,
// exactness contracts, query ceilings, and the threshold-via-count adapter
// on clean channels. Statistical acceptance and lossy-channel behaviour are
// covered by tests/conformance/counting_conformance_test.cpp.
#include "core/counting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../always_activity_channel.hpp"
#include "common/monte_carlo.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

using group::CollisionModel;
using group::ExactChannel;

TEST(CountingRegistry, HasTheTwoPortfolioEstimators) {
  EXPECT_EQ(counting_registry().size(), 2u);
  ASSERT_NE(find_counting_algorithm("nz-geom"), nullptr);
  ASSERT_NE(find_counting_algorithm("beep-exact"), nullptr);
  EXPECT_EQ(find_counting_algorithm("no-such-estimator"), nullptr);
  EXPECT_TRUE(find_counting_algorithm("beep-exact")->exact);
  EXPECT_FALSE(find_counting_algorithm("nz-geom")->exact);
}

TEST(CountingRegistry, EveryEstimatorHasAThresholdAdapterEntry) {
  for (const auto& spec : counting_registry()) {
    const auto* adapter = find_algorithm("count:" + spec.name);
    ASSERT_NE(adapter, nullptr) << spec.name;
    EXPECT_FALSE(adapter->needs_oracle);
  }
}

TEST(BeepExact, MatchesGroundTruthOnGridBothModels) {
  for (const auto model : {CollisionModel::kOnePlus,
                           CollisionModel::kTwoPlus}) {
    for (std::size_t x = 0; x <= 64; x += 7) {
      RngStream rng(100 + x, model == CollisionModel::kTwoPlus ? 1 : 0);
      ExactChannel::Config cfg;
      cfg.model = model;
      auto ch = ExactChannel::with_random_positives(64, x, rng, cfg);
      const auto out = run_beep_exact_count(ch, ch.all_nodes(), rng, {});
      EXPECT_EQ(out.estimate, static_cast<double>(x)) << "x=" << x;
      EXPECT_TRUE(out.exact);
      EXPECT_EQ(out.confidence, 1.0);
      EXPECT_EQ(out.queries, ch.queries_used());
      // Every confirmed identity must be unique-able to a real positive.
      auto ids = out.confirmed;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      EXPECT_LE(ids.size(), x);
    }
  }
}

TEST(NzGeom, ProvesZeroExactlyInOneQuery) {
  RngStream rng(7);
  auto ch = ExactChannel::with_random_positives(256, 0, rng);
  const auto out = run_newport_zheng_count(ch, ch.all_nodes(), rng);
  EXPECT_TRUE(out.exact);
  EXPECT_EQ(out.estimate, 0.0);
  EXPECT_EQ(out.confidence, 1.0);
  EXPECT_EQ(out.queries, 1u);
}

TEST(NzGeom, EmptyParticipantsAreAnExactZero) {
  RngStream rng(8);
  auto ch = ExactChannel::with_random_positives(16, 4, rng);
  const auto out = run_newport_zheng_count(ch, {}, rng);
  EXPECT_TRUE(out.exact);
  EXPECT_EQ(out.estimate, 0.0);
  EXPECT_EQ(out.queries, 0u);
}

TEST(NzGeom, MeanEstimateTracksTruthAcrossDecades) {
  constexpr std::size_t kN = 512;
  for (const std::size_t x : {4u, 16u, 64u, 256u}) {
    MonteCarloConfig mc;
    mc.trials = 200;
    mc.experiment_id = 9100 + x;
    const auto stats = run_trials(mc, [x](RngStream& rng) {
      auto ch = ExactChannel::with_random_positives(kN, x, rng);
      return run_newport_zheng_count(ch, ch.all_nodes(), rng).estimate;
    });
    EXPECT_GE(stats.mean(), static_cast<double>(x) * 0.7) << "x=" << x;
    EXPECT_LE(stats.mean(), static_cast<double>(x) * 1.4) << "x=" << x;
  }
}

TEST(CountingBounds, SamplingEstimatorsStayUnderTheirCeiling) {
  for (const std::size_t n : {1u, 3u, 16u, 97u, 512u}) {
    for (const std::size_t x : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
      RngStream rng(40 + n + x);
      auto ch = ExactChannel::with_random_positives(n, x, rng);
      const auto out = run_newport_zheng_count(ch, ch.all_nodes(), rng);
      EXPECT_LE(static_cast<double>(out.queries),
                sampling_estimator_query_bound(n))
          << "n=" << n << " x=" << x;
    }
  }
}

// Every probe answers activity, so nz-geom never sees a silent scan level
// and runs its whole refinement: the ceiling is reached exactly, and it is
// the anchor, 3 probes on each of ⌈log2(n+1)⌉ + 2 levels and the
// ⌈4.5·ln(2/δ)/ε²⌉ refinement repeats the claim sizes.
TEST(CountingBounds, NzGeomReachesItsCeilingWhenEveryProbeIsActive) {
  const double repeats = std::ceil(4.5 * std::log(2.0 / kCountDelta) /
                                   (kCountEpsilon * kCountEpsilon));
  for (const std::size_t n : {1u, 3u, 16u, 97u, 512u, 4096u}) {
    std::vector<NodeId> nodes(n);
    for (std::size_t i = 0; i < n; ++i) nodes[i] = static_cast<NodeId>(i);
    AlwaysActivityChannel ch(CollisionModel::kOnePlus, /*lossy=*/false);
    RngStream rng(70 + n);
    const auto out = run_newport_zheng_count(ch, nodes, rng);
    const double levels =
        std::ceil(std::log2(static_cast<double>(n) + 1.0)) + 2.0;
    EXPECT_EQ(static_cast<double>(out.queries),
              sampling_estimator_query_bound(n))
        << "n=" << n;
    EXPECT_EQ(sampling_estimator_query_bound(n), 1.0 + 3.0 * levels + repeats)
        << "n=" << n;
    EXPECT_EQ(out.rounds, static_cast<std::size_t>(levels) + 1) << "n=" << n;
  }
}

TEST(CountingBounds, BeepExactStaysUnderItsCeiling) {
  // Adversarial loads for splitting: all-positive (maximum tree), the
  // half-full middle, and 2+ capture churn (each capture re-queries the
  // remainder of its segment).
  for (const auto model : {CollisionModel::kOnePlus,
                           CollisionModel::kTwoPlus}) {
    for (const std::size_t n : {1u, 2u, 7u, 64u, 257u, 512u}) {
      for (const std::size_t x : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
        RngStream rng(60 + n + x, model == CollisionModel::kTwoPlus ? 1 : 0);
        ExactChannel::Config cfg;
        cfg.model = model;
        auto ch = ExactChannel::with_random_positives(n, x, rng, cfg);
        const auto out = run_beep_exact_count(ch, ch.all_nodes(), rng, {});
        EXPECT_EQ(out.estimate, static_cast<double>(x));
        EXPECT_LE(static_cast<double>(out.queries), beep_exact_query_bound(n))
            << "n=" << n << " x=" << x;
      }
    }
  }
}

TEST(ThresholdViaCount, DegenerateEdgesResolveWithoutQueries) {
  RngStream rng(9);
  auto ch = ExactChannel::with_random_positives(8, 3, rng);
  for (const char* estimator : {"nz-geom", "beep-exact"}) {
    auto t0 = run_threshold_via_count(ch, ch.all_nodes(), 0, rng, estimator);
    EXPECT_TRUE(t0.decision);
    EXPECT_EQ(t0.queries, 0u);
    auto big =
        run_threshold_via_count(ch, ch.all_nodes(), 9, rng, estimator);
    EXPECT_FALSE(big.decision);
    EXPECT_EQ(big.queries, 0u);
  }
  EXPECT_EQ(ch.queries_used(), 0u);
}

TEST(ThresholdViaCount, MatchesGroundTruthOnCleanChannels) {
  for (const auto model : {CollisionModel::kOnePlus,
                           CollisionModel::kTwoPlus}) {
    for (const char* estimator : {"nz-geom", "beep-exact"}) {
      for (std::size_t x = 0; x <= 48; x += 5) {
        for (const std::size_t t : {1u, 8u, 24u, 48u}) {
          RngStream rng(200 + x + 100 * t,
                        model == CollisionModel::kTwoPlus ? 1 : 0);
          ExactChannel::Config cfg;
          cfg.model = model;
          auto ch = ExactChannel::with_random_positives(48, x, rng, cfg);
          const auto out =
              run_threshold_via_count(ch, ch.all_nodes(), t, rng, estimator);
          EXPECT_EQ(out.decision, x >= t)
              << estimator << " x=" << x << " t=" << t;
          EXPECT_EQ(out.queries, ch.queries_used());
          EXPECT_LE(out.confirmed_positives, x);
        }
      }
    }
  }
}

TEST(ThresholdViaCountDeathTest, RejectsUnknownEstimator) {
  RngStream rng(10);
  auto ch = ExactChannel::with_random_positives(8, 2, rng);
  EXPECT_DEATH(
      run_threshold_via_count(ch, ch.all_nodes(), 2, rng, "no-such"),
      "unknown counting algorithm");
}

}  // namespace
}  // namespace tcast::core
