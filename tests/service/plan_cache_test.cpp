// Per-shard bin-plan cache: LRU semantics and the hit/miss accounting
// surfaced in the stats response.
#include "service/plan_cache.hpp"

#include <gtest/gtest.h>

namespace tcast::service {
namespace {

PlanKey key(std::size_t n, std::size_t t, const char* algo = "2tbins") {
  return PlanKey{n, t, algo};
}

TEST(PlanCache, MissThenHit) {
  PlanCache cache(4);
  EXPECT_FALSE(cache.lookup(key(64, 8)).has_value());
  cache.insert(key(64, 8), PlanEntry{3.5});
  const auto plan = cache.lookup(key(64, 8));
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->p_estimate, 3.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, KeyIsTheFullTriple) {
  PlanCache cache(8);
  cache.insert(key(64, 8, "2tbins"), PlanEntry{0.0});
  EXPECT_FALSE(cache.lookup(key(64, 8, "abns:t")).has_value());
  EXPECT_FALSE(cache.lookup(key(64, 9, "2tbins")).has_value());
  EXPECT_FALSE(cache.lookup(key(65, 8, "2tbins")).has_value());
  EXPECT_TRUE(cache.lookup(key(64, 8, "2tbins")).has_value());
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.insert(key(1, 1), PlanEntry{1.0});
  cache.insert(key(2, 2), PlanEntry{2.0});
  // Touch (1,1) so (2,2) becomes the LRU entry.
  EXPECT_TRUE(cache.lookup(key(1, 1)).has_value());
  cache.insert(key(3, 3), PlanEntry{3.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(key(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(key(2, 2)).has_value());
  EXPECT_TRUE(cache.lookup(key(3, 3)).has_value());
}

TEST(PlanCache, InsertRefreshesExistingEntry) {
  PlanCache cache(2);
  cache.insert(key(64, 8), PlanEntry{0.0});
  cache.insert(key(64, 8), PlanEntry{7.5});
  EXPECT_EQ(cache.size(), 1u);
  const auto plan = cache.lookup(key(64, 8));
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->p_estimate, 7.5);
}

}  // namespace
}  // namespace tcast::service
