#include "group/binning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "rcd/addressing.hpp"

namespace tcast::group {
namespace {

std::vector<NodeId> iota_nodes(std::size_t n) {
  std::vector<NodeId> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = static_cast<NodeId>(i);
  return nodes;
}

/// Property suite over (n, b): both partition schemes produce a partition —
/// every node in exactly one bin, sizes differ by at most one.
class PartitionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PartitionTest, RandomEqualIsBalancedPartition) {
  const auto [n, b] = GetParam();
  RngStream rng(n * 7919 + b);
  const auto nodes = iota_nodes(n);
  const auto a = BinAssignment::random_equal(nodes, b, rng);
  ASSERT_EQ(a.bin_count(), b);
  std::multiset<NodeId> seen;
  std::size_t min_size = n + 1, max_size = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const auto bin = a.bin(i);
    seen.insert(bin.begin(), bin.end());
    min_size = std::min(min_size, bin.size());
    max_size = std::max(max_size, bin.size());
  }
  EXPECT_EQ(seen.size(), n);
  EXPECT_EQ(std::set<NodeId>(seen.begin(), seen.end()).size(), n);
  if (n > 0) {
    EXPECT_LE(max_size - min_size, 1u);
  }
  EXPECT_EQ(a.total_assigned(), n);
}

TEST_P(PartitionTest, ContiguousIsBalancedPartition) {
  const auto [n, b] = GetParam();
  const auto nodes = iota_nodes(n);
  const auto a = BinAssignment::contiguous(nodes, b);
  ASSERT_EQ(a.bin_count(), b);
  std::vector<NodeId> flattened;
  for (std::size_t i = 0; i < b; ++i) {
    const auto bin = a.bin(i);
    flattened.insert(flattened.end(), bin.begin(), bin.end());
    if (!bin.empty()) {
      EXPECT_TRUE(std::is_sorted(bin.begin(), bin.end()));
    }
  }
  EXPECT_EQ(flattened, nodes);  // contiguous preserves order exactly
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 12, 100, 128),
                       ::testing::Values<std::size_t>(1, 2, 7, 32)));

TEST(Binning, RandomEqualVariesAcrossDraws) {
  RngStream rng(5);
  const auto nodes = iota_nodes(64);
  const auto a = BinAssignment::random_equal(nodes, 8, rng);
  const auto b = BinAssignment::random_equal(nodes, 8, rng);
  bool any_diff = false;
  for (std::size_t i = 0; i < 8 && !any_diff; ++i) {
    const auto ba = a.bin(i), bb = b.bin(i);
    any_diff = !std::equal(ba.begin(), ba.end(), bb.begin(), bb.end());
  }
  EXPECT_TRUE(any_diff);
}

// The historical random-equal construction BinAssignment's fused
// shuffle-deal must reproduce: shuffle, then deal round-robin into per-bin
// vectors.
std::vector<std::vector<NodeId>> shuffle_then_deal(std::vector<NodeId> items,
                                                   std::size_t bins,
                                                   RngStream& rng) {
  rng.shuffle(std::span<NodeId>(items));
  std::vector<std::vector<NodeId>> out(bins);
  for (std::size_t i = 0; i < items.size(); ++i)
    out[i % bins].push_back(items[i]);
  return out;
}

TEST(NodeSetPartition, MatchesShuffleThenDealBitForBit) {
  RngStream scenario_rng(0xfeed, 3);
  BinAssignment a;  // recycled, as the round engine recycles its own
  for (int rep = 0; rep < 100; ++rep) {
    const std::size_t n = scenario_rng.uniform_below(97);
    const std::size_t bins = 1 + scenario_rng.uniform_below(20);
    std::vector<NodeId> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = static_cast<NodeId>(i * 2);

    // Two RNG streams with identical state: one for the oracle, one for the
    // assignment. Draw-compatibility means both end up in the same state.
    RngStream oracle_rng(0xabc, static_cast<std::uint64_t>(rep));
    RngStream fast_rng(0xabc, static_cast<std::uint64_t>(rep));
    const auto expected = shuffle_then_deal(items, bins, oracle_rng);

    a.assign_random_equal(items, bins, fast_rng);
    ASSERT_EQ(a.bin_count(), bins);
    EXPECT_EQ(a.total_assigned(), n);
    for (std::size_t b = 0; b < bins; ++b) {
      const auto bin = a.bin(b);
      EXPECT_EQ(std::vector<NodeId>(bin.begin(), bin.end()), expected[b])
          << "bin " << b;
      // The word image, built in the same walk, holds exactly the members.
      if (!a.has_bin_words()) continue;
      NodeSet image(a.words_per_bin() * NodeSet::kWordBits);
      for (const NodeId id : bin) image.insert(id);
      const auto words = a.bin_words(b);
      EXPECT_TRUE(std::equal(words.begin(), words.end(),
                             image.words().begin(), image.words().end()))
          << "bin " << b;
    }
    EXPECT_EQ(a.has_bin_words(), n > 0) << "bins " << bins << " n " << n;
    // Same number of draws consumed: the next raw output must agree.
    EXPECT_EQ(oracle_rng.bits(), fast_rng.bits());
  }
}

TEST(Binning, SampledInclusionRate) {
  RngStream rng(6);
  const auto nodes = iota_nodes(1000);
  double total = 0;
  const int draws = 200;
  for (int i = 0; i < draws; ++i)
    total += static_cast<double>(
        BinAssignment::sampled(nodes, 0.25, rng).bin(0).size());
  EXPECT_NEAR(total / draws / 1000.0, 0.25, 0.02);
}

TEST(Binning, SampledDegenerateProbabilities) {
  RngStream rng(7);
  const auto nodes = iota_nodes(10);
  EXPECT_EQ(BinAssignment::sampled(nodes, 0.0, rng).bin(0).size(), 0u);
  EXPECT_EQ(BinAssignment::sampled(nodes, 1.0, rng).bin(0).size(), 10u);
}

TEST(Binning, SampledMatchesThePerNodeBernoulliWalk) {
  // assign_sampled decides each node with an integer compare on the draw;
  // it must keep exactly the nodes, and consume exactly the draws, of
  // `if (rng.bernoulli(p)) push_back(id)`. p·2^53 is an integer for 0,
  // 2^-53, 0.25, 0.5, 1−2^-53 and 1, and is not for 1e-300 and 0.0014.
  const double ps[] = {0.0,  0x1.0p-53, 1e-300,           0.0014,
                       0.25, 0.5,       1.0 - 0x1.0p-53, 1.0};
  std::vector<std::vector<NodeId>> node_lists;
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 1024u, 4096u})
    node_lists.push_back(iota_nodes(n));
  node_lists.push_back({3, 900, 17, 4095, 64, 65, 2, 70000, 0});
  // The compare is exact at its boundary, where random draws almost never
  // land: u = threshold - 1 passes `uniform01() < p` and u = threshold
  // fails it.
  for (const double p : ps) {
    const std::uint64_t threshold = RngStream::bernoulli_threshold(p);
    ASSERT_LE(threshold, std::uint64_t{1} << 53) << p;
    if (threshold > 0) {
      EXPECT_LT(static_cast<double>(threshold - 1) * 0x1.0p-53, p) << p;
    }
    if (threshold < (std::uint64_t{1} << 53)) {
      EXPECT_GE(static_cast<double>(threshold) * 0x1.0p-53, p) << p;
    }
  }
  // One assignment across every case, so a small case follows a large one.
  BinAssignment a;
  std::uint64_t seed = 1;
  for (const auto& nodes : node_lists) {
    for (const double p : ps) {
      RngStream rng(seed++, 3);
      RngStream ref = rng;
      std::vector<NodeId> expected;
      for (const NodeId id : nodes)
        if (ref.bernoulli(p)) expected.push_back(id);
      a.assign_sampled(nodes, p, rng);
      ASSERT_EQ(a.bin_count(), 1u);
      const auto bin = a.bin(0);
      EXPECT_EQ(std::vector<NodeId>(bin.begin(), bin.end()), expected)
          << "n=" << nodes.size() << " p=" << p;
      EXPECT_EQ(a.total_assigned(), expected.size());
      EXPECT_FALSE(a.has_bin_words());
      EXPECT_EQ(rng.bits(), ref.bits())
          << "n=" << nodes.size() << " p=" << p;
    }
  }
}

TEST(Binning, WireRoundTrip) {
  RngStream rng(8);
  const auto nodes = iota_nodes(10);
  const auto a = BinAssignment::random_equal(nodes, 3, rng);
  const auto wire = a.to_wire(12);  // universe larger than assigned set
  ASSERT_EQ(wire.size(), 12u);
  EXPECT_EQ(wire[10], rcd::kNotInRound);
  EXPECT_EQ(wire[11], rcd::kNotInRound);
  for (std::size_t bin = 0; bin < 3; ++bin)
    for (const NodeId id : a.bin(bin))
      EXPECT_EQ(wire[static_cast<std::size_t>(id)], bin);
}

TEST(Binning, WireMarksUnassignedNodes) {
  RngStream rng(9);
  const std::vector<NodeId> nodes = {2, 5, 7};
  const auto a = BinAssignment::random_equal(nodes, 2, rng);
  const auto wire = a.to_wire(8);
  std::size_t assigned = 0;
  for (const auto v : wire)
    if (v != rcd::kNotInRound) ++assigned;
  EXPECT_EQ(assigned, 3u);
  EXPECT_EQ(wire[0], rcd::kNotInRound);
}

}  // namespace
}  // namespace tcast::group
