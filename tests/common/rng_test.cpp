#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

namespace tcast {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256pp, SameSeedSameSequence) {
  Xoshiro256pp a(7, 3), b(7, 3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256pp, DifferentStreamsDiverge) {
  Xoshiro256pp a(7, 0), b(7, 1);
  int equal = 0;
  for (int i = 0; i < 256; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(RngStream, UniformBelowStaysInRange) {
  RngStream rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_below(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(RngStream, UniformBelowCoversAllResidues) {
  RngStream rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngStream, UniformBelowIsRoughlyUniform) {
  RngStream rng(3);
  std::array<int, 8> counts{};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i)
    counts[static_cast<std::size_t>(rng.uniform_below(8))]++;
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 8 / 5);  // within 20%
  }
}

/// The two-division rejection loop uniform_below must match draw for draw:
/// threshold = 2^64 mod bound, reject draws below it, reduce by modulo.
std::uint64_t uniform_below_oracle(RngStream& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng.bits();
    if (r >= threshold) return r % bound;
  }
}

TEST(RngStream, UniformBelowMatchesDivisionOracle) {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 5000; ++b) bounds.push_back(b);
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    if (p > 1) bounds.push_back(p - 1);
    bounds.push_back(p);
    bounds.push_back(p + 1);
  }
  bounds.push_back(~std::uint64_t{0});
  // Random bounds of every magnitude: a raw word shifted right 0..63 bits.
  RngStream pick(0xB0D5, 1);
  for (int i = 0; i < 4000; ++i) {
    const auto shift = static_cast<int>(pick.bits() % 64);
    bounds.push_back(std::max<std::uint64_t>(1, pick.bits() >> shift));
  }

  RngStream rng(0xD1CE, 7);
  for (const std::uint64_t bound : bounds) {
    for (int rep = 0; rep < 3; ++rep) {
      RngStream oracle = rng;  // copying forks the stream at this point
      const std::uint64_t want = uniform_below_oracle(oracle, bound);
      ASSERT_EQ(rng.uniform_below(bound), want) << "bound=" << bound;
      // Same number of engine draws consumed: the streams stay in step.
      ASSERT_EQ(rng.bits(), oracle.bits()) << "bound=" << bound;
    }
  }
}

TEST(RngStream, UniformIntInclusiveBounds) {
  RngStream rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngStream, Uniform01HalfOpen) {
  RngStream rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngStream, BernoulliMatchesProbability) {
  RngStream rng(6);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngStream, BernoulliDegenerate) {
  RngStream rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngStream, NormalMomentsAreSane) {
  RngStream rng(8);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngStream, NormalScaled) {
  RngStream rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngStream, ShuffleIsAPermutation) {
  RngStream rng(10);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
}

TEST(RngStream, SampleSubsetProperties) {
  RngStream rng(11);
  const auto s = rng.sample_subset(50, 10);
  ASSERT_EQ(s.size(), 10u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());  // distinct
  for (const NodeId id : s) EXPECT_LT(id, 50u);
}

TEST(RngStream, SampleSubsetFullAndEmpty) {
  RngStream rng(12);
  EXPECT_TRUE(rng.sample_subset(5, 0).empty());
  const auto all = rng.sample_subset(5, 5);
  EXPECT_EQ(all, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(RngStream, SampleSubsetIsUniform) {
  // Each element of [0,10) should appear in a 3-subset with prob 3/10.
  RngStream rng(13);
  std::array<int, 10> counts{};
  const int trials = 30000;
  for (int i = 0; i < trials; ++i)
    for (const NodeId id : rng.sample_subset(10, 3))
      counts[static_cast<std::size_t>(id)]++;
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
}

TEST(TrialStreamId, DistinctForDistinctTrials) {
  std::set<std::uint64_t> ids;
  for (std::uint64_t e = 0; e < 10; ++e)
    for (std::uint64_t t = 0; t < 100; ++t)
      ids.insert(trial_stream_id(e, t));
  EXPECT_EQ(ids.size(), 1000u);
}

}  // namespace
}  // namespace tcast
