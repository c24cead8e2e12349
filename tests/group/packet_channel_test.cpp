// PacketChannel: the packet tier must agree with the abstract tier.
#include <gtest/gtest.h>

#include <tuple>

#include "core/registry.hpp"
#include "core/two_t_bins.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast::group {
namespace {

std::vector<bool> random_truth(std::size_t n, std::size_t x,
                               std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<bool> positive(n, false);
  for (const NodeId id : rng.sample_subset(n, x))
    positive[static_cast<std::size_t>(id)] = true;
  return positive;
}

PacketChannel::Config ideal_config(CollisionModel model) {
  PacketChannel::Config cfg;
  cfg.model = model;
  cfg.channel.hack = radio::HackReceptionModel::ideal();
  return cfg;
}

TEST(PacketChannel, OnePlusSemanticsMatchGroundTruth) {
  const auto truth = random_truth(8, 3, 1);
  PacketChannel ch(truth, ideal_config(CollisionModel::kOnePlus));
  // Query singletons: result must equal the node's truth.
  for (NodeId id = 0; id < 8; ++id) {
    const std::vector<NodeId> bin = {id};
    EXPECT_EQ(ch.query_set(bin).nonempty(),
              truth[static_cast<std::size_t>(id)])
        << "node " << id;
  }
  // Whole-set query: non-empty since x = 3.
  EXPECT_TRUE(ch.query_set(ch.all_nodes()).nonempty());
}

TEST(PacketChannel, TwoPlusCapturesLoneReplyIdentity) {
  std::vector<bool> truth(6, false);
  truth[4] = true;
  auto cfg = ideal_config(CollisionModel::kTwoPlus);
  PacketChannel ch(truth, cfg);
  const auto r = ch.query_set(ch.all_nodes());
  ASSERT_EQ(r.kind, BinQueryResult::Kind::kCaptured);
  EXPECT_EQ(r.captured, NodeId{4});
}

TEST(PacketChannel, TwoPlusCollisionIsActivity) {
  std::vector<bool> truth(6, true);
  auto cfg = ideal_config(CollisionModel::kTwoPlus);  // NoCapture by default
  PacketChannel ch(truth, cfg);
  const auto r = ch.query_set(ch.all_nodes());
  EXPECT_EQ(r.kind, BinQueryResult::Kind::kActivity);
}

TEST(PacketChannel, SimTimeAdvancesWithQueries) {
  PacketChannel ch(random_truth(8, 4, 2),
                   ideal_config(CollisionModel::kOnePlus));
  const auto before = ch.elapsed();
  ch.query_set(ch.all_nodes());
  EXPECT_GT(ch.elapsed(), before);
}

TEST(PacketChannel, EnergyIsAccumulated) {
  PacketChannel ch(random_truth(8, 4, 3),
                   ideal_config(CollisionModel::kOnePlus));
  ch.query_set(ch.all_nodes());
  EXPECT_GT(ch.initiator_energy_mj(), 0.0);
  EXPECT_GT(ch.participant_energy_mj(0), 0.0);
}

/// The flagship integration property: 2tBins run on the ideal packet tier
/// answers every instance exactly like the abstract tier does.
class PacketEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PacketEquivalenceTest, TwoTBinsAgreesWithGroundTruth) {
  const auto [x, t] = GetParam();
  const std::size_t n = 12;
  const auto truth = random_truth(n, x, 40 + x * 7 + t);
  PacketChannel ch(truth, ideal_config(CollisionModel::kOnePlus));
  RngStream rng(99 + x + t);
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;  // no oracle on packets
  const auto out = core::run_two_t_bins(ch, ch.all_nodes(), t, rng, opts);
  EXPECT_EQ(out.decision, x >= t) << "x=" << x << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PacketEquivalenceTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 3, 6, 9, 12),
                       ::testing::Values<std::size_t>(1, 2, 4, 6)));

TEST(PacketChannel, FalseNegativesAppearWithRadioIrregularity) {
  PacketChannel::Config cfg;
  cfg.model = CollisionModel::kOnePlus;
  cfg.channel.hack = radio::HackReceptionModel(1.0, 1.0);  // always miss
  std::vector<bool> truth(4, true);
  PacketChannel ch(truth, cfg);
  EXPECT_FALSE(ch.query_set(ch.all_nodes()).nonempty());  // false negative
}

TEST(PacketChannel, AnnounceIsFreeQueriesAreCounted) {
  PacketChannel ch(random_truth(8, 2, 5),
                   ideal_config(CollisionModel::kOnePlus));
  RngStream rng(1);
  const auto assignment =
      BinAssignment::random_equal(ch.all_nodes(), 4, rng);
  ch.announce(assignment);
  EXPECT_EQ(ch.queries_used(), 0u);
  ch.query_bin(assignment, 0);
  ch.query_bin(assignment, 1);
  EXPECT_EQ(ch.queries_used(), 2u);
}

TEST(PacketChannel, SetPositiveTakesEffectOnTheNextQuery) {
  for (const auto model :
       {CollisionModel::kOnePlus, CollisionModel::kTwoPlus}) {
    PacketChannel ch({true, false, false}, ideal_config(model));
    const std::vector<NodeId> set = {0, 1};
    EXPECT_TRUE(ch.query_set(set).nonempty()) << to_string(model);
    // The same set again: no new assignment, but node 0 is now negative.
    ch.set_positive(0, false);
    EXPECT_FALSE(ch.query_set(set).nonempty()) << to_string(model);
  }
}

TEST(PacketChannel, NoOracleOnThePacketTier) {
  PacketChannel ch(random_truth(8, 2, 6),
                   ideal_config(CollisionModel::kOnePlus));
  EXPECT_FALSE(ch.oracle_positive_count(ch.all_nodes()).has_value());
}

TEST(PacketChannelDeathTest, BackcastBinBeyondTheAddressBlockIsRefused) {
  // Bin g is polled at kEphemeralBase + g in 16 bits, so bin 8193 wraps
  // onto participant 0's short address: its radio would HACK the poll and
  // an empty bin would read as active.
  const auto cfg = ideal_config(CollisionModel::kOnePlus);
  ASSERT_EQ(PacketChannel::max_bins(cfg), 8176u);  // 0xE000..0xFFEF
  PacketChannel ch(std::vector<bool>(16, false), cfg);
  BinAssignment a;
  a.assign_contiguous(ch.all_nodes(), PacketChannel::max_bins(cfg));
  EXPECT_FALSE(ch.query_bin(a, 8175).nonempty());  // the block's last bin
  a.assign_contiguous(ch.all_nodes(), 8200);
  EXPECT_DEATH((void)ch.query_bin(a, 8193),
               "more bins than the primitive can address");
}

}  // namespace
}  // namespace tcast::group
