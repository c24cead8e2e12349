#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tcast {
namespace {

TEST(Parse, IntAcceptsOnlyAWholeInRangeNumber) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_int("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_int("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"", "-1", "+2", " 3", "3 ", "12abc", "1e3", "0x10",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_int(bad, u)) << bad;

  std::uint32_t narrow = 0;
  EXPECT_FALSE(parse_int("4294967296", narrow));
  std::int64_t s = 0;
  EXPECT_TRUE(parse_int("-42", s));
  EXPECT_EQ(s, -42);
}

TEST(Parse, DoubleAcceptsOnlyAWholeNumber) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("0.05", d));
  EXPECT_EQ(d, 0.05);
  EXPECT_TRUE(parse_double("1e-05", d));
  EXPECT_EQ(d, 1e-05);
  EXPECT_TRUE(parse_double("-2.5", d));
  EXPECT_EQ(d, -2.5);
  EXPECT_TRUE(parse_double("0.10000000000000001", d));
  EXPECT_EQ(d, 0.1);
  EXPECT_TRUE(parse_double("nan", d));
  EXPECT_TRUE(std::isnan(d));
  for (const char* bad : {"", "+1", " 1", "1 ", "0.5x", "0x1p-4", "1e400", "."})
    EXPECT_FALSE(parse_double(bad, d)) << bad;
}

TEST(Parse, SplitKeepsEmptyParts) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(split("", ','), V{""});
  EXPECT_EQ(split("a", ','), V{"a"});
  EXPECT_EQ(split("a,,b", ','), (V{"a", "", "b"}));
  EXPECT_EQ(split("a,", ','), (V{"a", ""}));
}

}  // namespace
}  // namespace tcast
