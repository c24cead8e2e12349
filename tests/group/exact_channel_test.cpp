#include "group/exact_channel.hpp"

#include <gtest/gtest.h>

#include "../conformance/reference_exact_channel.hpp"
#include "group/binning.hpp"
#include "group/instrumented_channel.hpp"

namespace tcast::group {
namespace {

std::vector<NodeId> ids(std::initializer_list<NodeId> list) { return list; }

TEST(ExactChannel, OnePlusSemantics) {
  RngStream rng(1);
  ExactChannel ch({false, true, true, false}, rng);
  EXPECT_EQ(ch.query_set(ids({0, 3})).kind, BinQueryResult::Kind::kEmpty);
  EXPECT_EQ(ch.query_set(ids({0, 1})).kind, BinQueryResult::Kind::kActivity);
  EXPECT_EQ(ch.query_set(ids({1, 2})).kind, BinQueryResult::Kind::kActivity);
  EXPECT_EQ(ch.queries_used(), 3u);
}

TEST(ExactChannel, TwoPlusLoneReplyAlwaysCaptured) {
  RngStream rng(2);
  ExactChannel::Config cfg;
  cfg.model = CollisionModel::kTwoPlus;
  ExactChannel ch({false, true, false}, rng, cfg);
  for (int i = 0; i < 20; ++i) {
    const auto r = ch.query_set(ids({0, 1, 2}));
    ASSERT_EQ(r.kind, BinQueryResult::Kind::kCaptured);
    EXPECT_EQ(r.captured, NodeId{1});
  }
}

TEST(ExactChannel, TwoPlusCollisionCaptureRate) {
  RngStream rng(3);
  ExactChannel::Config cfg;
  cfg.model = CollisionModel::kTwoPlus;
  cfg.capture = std::make_shared<radio::GeometricCaptureModel>(1.0, 0.5);
  ExactChannel ch({true, true}, rng, cfg);
  int captured = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto r = ch.query_set(ids({0, 1}));
    if (r.kind == BinQueryResult::Kind::kCaptured) {
      ++captured;
      EXPECT_TRUE(r.captured == 0u || r.captured == 1u);
    } else {
      EXPECT_EQ(r.kind, BinQueryResult::Kind::kActivity);
    }
  }
  EXPECT_NEAR(static_cast<double>(captured) / trials, 0.5, 0.02);
}

TEST(ExactChannel, OnePlusNeverCaptures) {
  RngStream rng(4);
  ExactChannel ch({true, true, true}, rng);
  for (int i = 0; i < 50; ++i)
    EXPECT_NE(ch.query_set(ids({0, 1, 2})).kind,
              BinQueryResult::Kind::kCaptured);
}

TEST(ExactChannel, OracleCountsExactly) {
  RngStream rng(5);
  ExactChannel ch({true, false, true, true, false}, rng);
  EXPECT_EQ(ch.oracle_positive_count(ids({0, 1})), 1u);
  EXPECT_EQ(ch.oracle_positive_count(ids({1, 4})), 0u);
  EXPECT_EQ(ch.oracle_positive_count(ids({0, 2, 3})), 3u);
  EXPECT_EQ(ch.positive_count(), 3u);
}

TEST(ExactChannel, WithRandomPositivesHasExactCount) {
  RngStream rng(6);
  for (std::size_t x : {0u, 1u, 7u, 32u}) {
    auto ch = ExactChannel::with_random_positives(32, x, rng);
    EXPECT_EQ(ch.positive_count(), x);
    EXPECT_EQ(ch.participant_count(), 32u);
    EXPECT_EQ(ch.oracle_positive_count(ch.all_nodes()), x);
  }
}

TEST(ExactChannel, SetPositiveUpdatesCount) {
  RngStream rng(7);
  ExactChannel ch({false, false}, rng);
  ch.set_positive(0, true);
  EXPECT_EQ(ch.positive_count(), 1u);
  ch.set_positive(0, true);  // idempotent
  EXPECT_EQ(ch.positive_count(), 1u);
  ch.set_positive(0, false);
  EXPECT_EQ(ch.positive_count(), 0u);
}

TEST(ExactChannel, EmptySetQueryIsEmpty) {
  RngStream rng(8);
  ExactChannel ch({true}, rng);
  EXPECT_EQ(ch.query_set({}).kind, BinQueryResult::Kind::kEmpty);
}

TEST(ExactChannel, QueryCounterResets) {
  RngStream rng(9);
  ExactChannel ch({true}, rng);
  ch.query_set(ids({0}));
  ch.reset_query_counter();
  EXPECT_EQ(ch.queries_used(), 0u);
}

TEST(ExactChannel, WideAnnouncedAssignmentIsCountedAndAnsweredExactly) {
  // 100 bins over 400 nodes: more than BinAssignment::kMaxBinsForWords, so
  // the assignment has no word image. Once announced, its bins are still
  // counted in one array, and every query_bin answer — announced or not —
  // matches the scalar reference channel, capture draws included.
  constexpr std::size_t kNodes = 400, kPositives = 120, kBins = 100;
  for (const auto model :
       {CollisionModel::kOnePlus, CollisionModel::kTwoPlus}) {
    SCOPED_TRACE(to_string(model));
    RngStream rng(12, 1), ref_rng(12, 1);
    ExactChannel::Config cfg;
    cfg.model = model;
    auto ch = ExactChannel::with_random_positives(kNodes, kPositives, rng, cfg);
    conformance::ReferenceExactChannel ref(kNodes, kPositives, ref_rng, model);
    RngStream bin_rng(13);
    const auto announced =
        BinAssignment::random_equal(ch.all_nodes(), kBins, bin_rng);
    const auto unannounced =
        BinAssignment::random_equal(ch.all_nodes(), kBins, bin_rng);
    ASSERT_FALSE(announced.has_bin_words());
    ch.announce(announced);
    ref.announce(announced);

    const std::uint32_t* counts = ch.oracle_bin_counts(announced);
    ASSERT_NE(counts, nullptr);
    for (std::size_t b = 0; b < kBins; ++b) {
      std::uint32_t walked = 0;
      for (const NodeId id : announced.bin(b)) walked += ch.is_positive(id);
      EXPECT_EQ(counts[b], walked) << "bin " << b;
    }
    EXPECT_EQ(ch.oracle_bin_counts(unannounced), nullptr);

    for (const BinAssignment* a : {&announced, &unannounced}) {
      for (std::size_t b = 0; b < kBins; ++b) {
        const BinQueryResult got = ch.query_bin(*a, b);
        const BinQueryResult want = ref.query_bin(*a, b);
        EXPECT_EQ(got.kind, want.kind) << "bin " << b;
        EXPECT_EQ(got.captured, want.captured) << "bin " << b;
      }
    }
    EXPECT_EQ(rng.bits(), ref_rng.bits()) << "capture draws diverged";
  }
}

TEST(InstrumentedChannel, RecordsTranscriptWithGroundTruth) {
  RngStream rng(10);
  ExactChannel inner({true, false, true}, rng);
  InstrumentedChannel ch(inner);
  ch.query_set(ids({0, 1}));
  ch.query_set(ids({1}));
  ASSERT_EQ(ch.transcript().size(), 2u);
  EXPECT_EQ(ch.transcript()[0].true_positives, 1u);
  EXPECT_TRUE(ch.transcript()[0].result.nonempty());
  EXPECT_EQ(ch.transcript()[1].true_positives, 0u);
  EXPECT_FALSE(ch.transcript()[1].result.nonempty());
  EXPECT_EQ(ch.queries_used(), 2u);
}

TEST(InstrumentedChannel, ForwardsModelAndOracle) {
  RngStream rng(11);
  ExactChannel::Config cfg;
  cfg.model = CollisionModel::kTwoPlus;
  ExactChannel inner({true}, rng, cfg);
  InstrumentedChannel ch(inner);
  EXPECT_EQ(ch.model(), CollisionModel::kTwoPlus);
  EXPECT_EQ(ch.oracle_positive_count(ids({0})), 1u);
}

TEST(BinQueryResultFactories, BehaveAsNamed) {
  EXPECT_FALSE(BinQueryResult::empty().nonempty());
  EXPECT_TRUE(BinQueryResult::activity().nonempty());
  const auto c = BinQueryResult::captured_node(5);
  EXPECT_TRUE(c.nonempty());
  EXPECT_EQ(c.captured, 5u);
}

}  // namespace
}  // namespace tcast::group
