// Property tests for NodeSet against a std::set oracle, plus targeted
// word-boundary cases for iteration and bulk removal.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"

namespace tcast {
namespace {

std::vector<NodeId> members_of(const NodeSet& s) {
  std::vector<NodeId> out;
  s.append_members(out);
  return out;
}

TEST(NodeSet, StartsEmpty) {
  NodeSet s(130);
  EXPECT_EQ(s.universe(), 130u);
  EXPECT_EQ(s.word_count(), 3u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(members_of(s).empty());
}

TEST(NodeSet, WordsForRoundsUp) {
  EXPECT_EQ(NodeSet::words_for(0), 0u);
  EXPECT_EQ(NodeSet::words_for(1), 1u);
  EXPECT_EQ(NodeSet::words_for(64), 1u);
  EXPECT_EQ(NodeSet::words_for(65), 2u);
  EXPECT_EQ(NodeSet::words_for(128), 2u);
  EXPECT_EQ(NodeSet::words_for(129), 3u);
}

TEST(NodeSet, InsertEraseTestMatchSetOracle) {
  constexpr std::size_t kUniverse = 200;  // spans >3 words, partial last word
  RngStream rng(0xbadc0ffee, 1);
  NodeSet s(kUniverse);
  std::set<NodeId> oracle;
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<NodeId>(rng.uniform_below(kUniverse));
    if (rng.bernoulli(0.5)) {
      EXPECT_EQ(s.insert(id), oracle.insert(id).second);
    } else {
      EXPECT_EQ(s.erase(id), oracle.erase(id) > 0);
    }
    ASSERT_EQ(s.count(), oracle.size());
    EXPECT_EQ(s.empty(), oracle.empty());
    // Spot-check membership of an unrelated id every step.
    const auto probe = static_cast<NodeId>(rng.uniform_below(kUniverse));
    EXPECT_EQ(s.test(probe), oracle.count(probe) > 0);
  }
  // Full-extension check at the end: identical ascending member lists.
  const std::vector<NodeId> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(members_of(s), expected);
}

TEST(NodeSet, ClearKeepsUniverse) {
  NodeSet s(100);
  s.insert(3);
  s.insert(99);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.universe(), 100u);
  EXPECT_FALSE(s.test(3));
  EXPECT_FALSE(s.test(99));
}

TEST(NodeSet, RemoveWordsReportsActualRemovals) {
  NodeSet alive(256), gone(256);
  for (NodeId id = 0; id < 256; id += 3) alive.insert(id);
  const std::size_t before = alive.count();
  // `gone` overlaps `alive` only partially; remove_words must report the
  // overlap, not gone.count().
  for (NodeId id = 0; id < 256; id += 6) gone.insert(id);   // all in alive
  gone.insert(1);                                           // not in alive
  gone.insert(7);                                           // not in alive
  std::size_t expected_overlap = 0;
  gone.for_each([&](NodeId id) { expected_overlap += alive.test(id); });
  const std::size_t removed = alive.remove_words(gone.words());
  EXPECT_EQ(removed, expected_overlap);
  EXPECT_EQ(alive.count(), before - removed);
  alive.for_each([&](NodeId id) { EXPECT_FALSE(gone.test(id)); });
  // Removing again is a no-op.
  EXPECT_EQ(alive.remove_words(gone.words()), 0u);
}

TEST(NodeSet, ForEachVisitsAscending) {
  NodeSet s(300);
  for (const NodeId id : {NodeId{299}, NodeId{64}, NodeId{0}, NodeId{63},
                          NodeId{128}})
    s.insert(id);
  std::vector<NodeId> visited;
  s.for_each([&visited](NodeId id) { visited.push_back(id); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(visited, members_of(s));
  EXPECT_EQ(visited.size(), 5u);
}

}  // namespace
}  // namespace tcast
