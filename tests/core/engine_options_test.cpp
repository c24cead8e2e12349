// Engine-option interactions not covered by the main grid: the
// conservative 2+ lower bound, anti-livelock, and option independence.
#include <gtest/gtest.h>

#include "../always_activity_channel.hpp"
#include "core/registry.hpp"
#include "core/two_t_bins.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

using group::CollisionModel;
using group::ExactChannel;

/// Replayed by a FaultyChannel, this empty trace injects nothing but makes
/// the channel declare lossy(): the only way to withhold the engine's 2+
/// "activity ⇒ ≥2" credit. With no retry policy, nothing else changes.
const faults::FaultTrace kDeclaresLoss{{}, /*lossy=*/true};

TEST(EngineOptions, ConservativeTwoPlusStillCorrectEverywhere) {
  // Withholding the ≥2 credit (the sound choice for lossy radios) must not
  // break exactness on the ideal channel.
  for (const auto& spec : algorithm_registry()) {
    for (std::size_t x = 0; x <= 32; x += 4) {
      RngStream rng(900 + x);
      ExactChannel::Config cfg;
      cfg.model = CollisionModel::kTwoPlus;
      auto ch = ExactChannel::with_random_positives(32, x, rng, cfg);
      faults::FaultyChannel conservative(ch, ch.all_nodes(), kDeclaresLoss);
      const auto out = spec.run(conservative, ch.all_nodes(), 8, rng, {});
      EXPECT_EQ(out.decision, x >= 8) << spec.name << " x=" << x;
    }
  }
}

TEST(EngineOptions, ConservativeTwoPlusCostsMoreNearThreshold) {
  // The ≥2 inference is worth real queries around x ≈ t: withholding it
  // must never help.
  double with = 0.0, without = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto seed = static_cast<std::uint64_t>(5000 + i);
    {
      RngStream rng(seed);
      ExactChannel::Config cfg;
      cfg.model = CollisionModel::kTwoPlus;
      auto ch = ExactChannel::with_random_positives(128, 24, rng, cfg);
      with += static_cast<double>(
          run_two_t_bins(ch, ch.all_nodes(), 16, rng).queries);
    }
    {
      RngStream rng(seed);
      ExactChannel::Config cfg;
      cfg.model = CollisionModel::kTwoPlus;
      auto ch = ExactChannel::with_random_positives(128, 24, rng, cfg);
      faults::FaultyChannel conservative(ch, ch.all_nodes(), kDeclaresLoss);
      without += static_cast<double>(
          run_two_t_bins(conservative, ch.all_nodes(), 16, rng).queries);
    }
  }
  EXPECT_LE(with, without);
}

TEST(EngineOptions, AntiLivelockEscalatesStuckPolicies) {
  // A policy that always asks for one bin would spin forever on an
  // all-positive instance (the single bin is always non-empty, nothing is
  // eliminated); the engine must force progress and still answer.
  class OneBinPolicy final : public BinCountPolicy {
   public:
    std::size_t initial_bins(std::span<const NodeId>, std::size_t) override {
      return 1;
    }
    std::size_t next_bins(const RoundStats&,
                          std::span<const NodeId>) override {
      return 1;
    }
  };
  RngStream rng(1);
  auto ch = ExactChannel::with_random_positives(64, 64, rng);
  OneBinPolicy policy;
  RoundEngine engine(ch, rng, EngineOptions{});
  const auto out = engine.run(ch.all_nodes(), 8, policy);
  EXPECT_TRUE(out.decision);
  EXPECT_LE(out.rounds, 16u);
}

TEST(EngineOptions, AllActivitySingletonsCertifyTheThreshold) {
  // A channel that reports activity on every bin never lets elimination
  // happen. With t = 5 and 8 nodes, 2tBins' 10 bins clamp to 8 singletons;
  // each reads non-empty, so the fifth certifies x ≥ t in the first round.
  AlwaysActivityChannel ch(CollisionModel::kOnePlus, /*lossy=*/false);
  RngStream rng(2);
  std::vector<NodeId> nodes(8);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    nodes[i] = static_cast<NodeId>(i);
  TwoTBinsPolicy policy;
  RoundEngine engine(ch, rng, EngineOptions{});
  const auto out = engine.run(nodes, 5, policy);
  EXPECT_TRUE(out.decision);
  EXPECT_EQ(out.rounds, 1u);
  EXPECT_EQ(out.queries, 5u);
}

}  // namespace
}  // namespace tcast::core
