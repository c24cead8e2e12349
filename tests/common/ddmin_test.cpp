// ddmin: the delta-debugging shrinker shared by chaos::shrink and
// service::shrink_service_ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/ddmin.hpp"

namespace tcast {
namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(Ddmin, KeepsOnlyTheFailureInducingElementsInOrder) {
  std::vector<int> items(40);
  std::iota(items.begin(), items.end(), 0);
  const auto fails = [](const std::vector<int>& v) {
    return contains(v, 29) && contains(v, 3);
  };
  EXPECT_EQ(ddmin(items, fails), (std::vector<int>{3, 29}));
}

TEST(Ddmin, LoneSurvivorGetsOneTryAtTheEmptySequence) {
  std::size_t probes = 0;
  const auto needs_seven = [&probes](const std::vector<int>& v) {
    ++probes;
    return contains(v, 7);
  };
  EXPECT_EQ(ddmin(std::vector<int>{7}, needs_seven), std::vector<int>{7});
  EXPECT_EQ(probes, 1u);
  const auto always = [](const std::vector<int>&) { return true; };
  EXPECT_TRUE(ddmin(std::vector<int>{1, 2, 3, 4, 5}, always).empty());
}

}  // namespace
}  // namespace tcast
