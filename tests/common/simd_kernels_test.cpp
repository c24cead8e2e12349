// Property battery for the SIMD word-set kernels (common/simd_kernels.hpp):
// every kernel × every dispatch level this CPU can run, against two
// independent oracles — a std::bitset walk over the packed words and a
// sorted-id-vector set algebra — on randomized inputs that pin the
// word-boundary geometry (vector-width multiples, off-by-one tails, the
// empty span) and the bin-count batch's special-cased small images.
//
// The contract under test is strict bit-exactness: for ANY input, every
// level returns the same answer as both oracles. That is what lets the
// dispatcher pick a level at runtime (or a test force one) without the
// figure pipeline noticing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_kernels.hpp"

namespace tcast::simd {
namespace {

/// Forces a dispatch level for one scope; always restores automatic
/// dispatch, including when an assertion fails mid-test.
class ForcedLevel {
 public:
  explicit ForcedLevel(Level level) { force_level(level); }
  ~ForcedLevel() { clear_forced_level(); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
};

// Word counts that straddle every vector geometry in play: 0; scalar-only
// tails; exactly one 256-bit block (4) and one AVX-512 block (8) with ±1
// neighbours; and multi-block spans with and without tails.
const std::size_t kWordCounts[] = {0,  1,  2,  3,  4,  5,  7,  8,
                                   9,  15, 16, 17, 24, 31, 32, 33};

/// Mixed-density random words: dense, sparse, empty, and full words all
/// appear, so carries/tails see both all-zero and all-one patterns.
std::vector<std::uint64_t> random_words(RngStream& rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) {
    switch (rng.uniform_below(5)) {
      case 0: w = 0; break;
      case 1: w = ~std::uint64_t{0}; break;
      case 2: w = rng.bits() & rng.bits() & rng.bits(); break;  // sparse
      default: w = rng.bits(); break;
    }
  }
  return out;
}

// --- Oracle 1: per-word std::bitset algebra. -------------------------------

bool intersect_bitset_oracle(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if ((std::bitset<64>(a[i]) & std::bitset<64>(b[i])).any()) return true;
  return false;
}

std::size_t and_popcount_bitset_oracle(const std::vector<std::uint64_t>& a,
                                       const std::vector<std::uint64_t>& b,
                                       std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += (std::bitset<64>(a[i]) & std::bitset<64>(b[i])).count();
  return total;
}

// --- Oracle 2: sorted id vectors + std::set_intersection. ------------------

std::vector<std::uint32_t> ids_of(const std::vector<std::uint64_t>& words,
                                  std::size_t n) {
  std::vector<std::uint32_t> ids;
  for (std::size_t w = 0; w < n; ++w)
    for (std::uint32_t bit = 0; bit < 64; ++bit)
      if (words[w] & (std::uint64_t{1} << bit))
        ids.push_back(static_cast<std::uint32_t>(w * 64 + bit));
  return ids;  // ascending by construction
}

std::size_t intersection_size_sorted_oracle(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b,
    std::size_t n) {
  const auto ia = ids_of(a, n);
  const auto ib = ids_of(b, n);
  std::vector<std::uint32_t> both;
  std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                        std::back_inserter(both));
  return both.size();
}

TEST(SimdKernels, SupportedLevelsAreCoherent) {
  const auto levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kPortable);
  EXPECT_NE(std::find(levels.begin(), levels.end(), best_supported()),
            levels.end());
  for (const Level level : levels) {
    ForcedLevel forced(level);
    EXPECT_EQ(active_level(), level) << to_string(level);
  }
}

TEST(SimdKernels, IntersectMatchesBitsetOracleAtEveryLevel) {
  RngStream rng(0x51D0001, 1);
  for (const std::size_t n : kWordCounts) {
    for (std::size_t rep = 0; rep < 60; ++rep) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);
      const bool want = intersect_bitset_oracle(a, b, n);
      for (const Level level : supported_levels()) {
        ForcedLevel forced(level);
        EXPECT_EQ(words_intersect(a.data(), b.data(), n), want)
            << "n=" << n << " level=" << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, IntersectSeesALoneBitInTheTailLane) {
  // A single shared bit placed in every word position, including the last
  // partial vector lane — the classic masked-tail bug this suite exists to
  // catch.
  for (const std::size_t n : kWordCounts) {
    for (std::size_t w = 0; w < n; ++w) {
      std::vector<std::uint64_t> a(n, 0), b(n, 0);
      a[w] = std::uint64_t{1} << 63;
      b[w] = std::uint64_t{1} << 63;
      for (const Level level : supported_levels()) {
        ForcedLevel forced(level);
        EXPECT_TRUE(words_intersect(a.data(), b.data(), n))
            << "n=" << n << " word=" << w << " level=" << to_string(level);
        b[w] >>= 1;  // now disjoint
        EXPECT_FALSE(words_intersect(a.data(), b.data(), n))
            << "n=" << n << " word=" << w << " level=" << to_string(level);
        b[w] <<= 1;
      }
    }
  }
}

TEST(SimdKernels, AndPopcountMatchesBothOraclesAtEveryLevel) {
  RngStream rng(0x51D0002, 1);
  for (const std::size_t n : kWordCounts) {
    for (std::size_t rep = 0; rep < 40; ++rep) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);
      const std::size_t bitset_want = and_popcount_bitset_oracle(a, b, n);
      ASSERT_EQ(bitset_want, intersection_size_sorted_oracle(a, b, n));
      for (const Level level : supported_levels()) {
        ForcedLevel forced(level);
        EXPECT_EQ(words_and_popcount(a.data(), b.data(), n), bitset_want)
            << "n=" << n << " level=" << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, AndnotCountClearsExactlyTheIntersection) {
  RngStream rng(0x51D0003, 1);
  for (const std::size_t n : kWordCounts) {
    for (std::size_t rep = 0; rep < 40; ++rep) {
      const auto dst0 = random_words(rng, n);
      const auto mask = random_words(rng, n);
      const std::size_t removed_want =
          and_popcount_bitset_oracle(dst0, mask, n);
      for (const Level level : supported_levels()) {
        ForcedLevel forced(level);
        auto dst = dst0;
        EXPECT_EQ(words_andnot_count(dst.data(), mask.data(), n),
                  removed_want)
            << "n=" << n << " level=" << to_string(level);
        for (std::size_t w = 0; w < n; ++w)
          EXPECT_EQ(dst[w], dst0[w] & ~mask[w])
              << "n=" << n << " word=" << w << " level=" << to_string(level);
        // Idempotence: nothing left to clear on the second pass.
        EXPECT_EQ(words_andnot_count(dst.data(), mask.data(), n), 0u)
            << "n=" << n << " level=" << to_string(level);
      }
    }
  }
}

TEST(SimdKernels, BinIntersectionCountsMatchesPerBinOracle) {
  RngStream rng(0x51D0004, 1);
  // Geometries cover the n==1 and n==2 (pair-kernel) special cases with
  // vector-block and tail bin counts, asymmetric pos/bin word sizes in both
  // directions, and wide multi-word images.
  const std::size_t pos_word_counts[] = {1, 2, 3, 5, 8, 10};
  const std::size_t words_per_bin_counts[] = {1, 2, 3, 5, 9};
  const std::size_t bin_counts[] = {0, 1, 2, 3, 4, 5, 7, 31, 32, 33};
  for (const std::size_t pos_words : pos_word_counts) {
    for (const std::size_t wpb : words_per_bin_counts) {
      for (const std::size_t bins : bin_counts) {
        const auto pos = random_words(rng, pos_words);
        const auto arena = random_words(rng, wpb * bins);
        const std::size_t n = std::min(pos_words, wpb);
        std::vector<std::uint32_t> want(bins, 0);
        for (std::size_t b = 0; b < bins; ++b) {
          std::size_t c = 0;
          for (std::size_t w = 0; w < n; ++w)
            c += (std::bitset<64>(pos[w]) &
                  std::bitset<64>(arena[b * wpb + w]))
                     .count();
          want[b] = static_cast<std::uint32_t>(c);
        }
        for (const Level level : supported_levels()) {
          ForcedLevel forced(level);
          std::vector<std::uint32_t> got(bins, 0xdeadbeef);
          if (bins == 0) got.assign(1, 0xdeadbeef);  // non-null out
          bin_intersection_counts(pos.data(), pos_words, arena.data(), wpb,
                                  bins, got.data());
          for (std::size_t b = 0; b < bins; ++b)
            EXPECT_EQ(got[b], want[b])
                << "pos_words=" << pos_words << " wpb=" << wpb
                << " bins=" << bins << " bin=" << b
                << " level=" << to_string(level);
          if (bins == 0)
            EXPECT_EQ(got[0], 0xdeadbeef) << "wrote past zero bins";
        }
      }
    }
  }
}

TEST(SimdKernels, AllLevelsAgreePairwiseOnLargeRandomInputs) {
  // No oracle: every level must agree with every other on inputs large
  // enough that all vector paths take their main loops and their tails.
  RngStream rng(0x51D0005, 1);
  const auto levels = supported_levels();
  for (std::size_t rep = 0; rep < 20; ++rep) {
    const std::size_t n = 16 + rng.uniform_below(33);  // 16..48 words
    const auto a = random_words(rng, n);
    const auto b = random_words(rng, n);
    std::vector<std::size_t> counts;
    std::vector<bool> hits;
    for (const Level level : levels) {
      ForcedLevel forced(level);
      counts.push_back(words_and_popcount(a.data(), b.data(), n));
      hits.push_back(words_intersect(a.data(), b.data(), n));
    }
    for (std::size_t i = 1; i < levels.size(); ++i) {
      EXPECT_EQ(counts[i], counts[0])
          << to_string(levels[i]) << " vs " << to_string(levels[0]);
      EXPECT_EQ(hits[i], hits[0])
          << to_string(levels[i]) << " vs " << to_string(levels[0]);
    }
  }
}

}  // namespace
}  // namespace tcast::simd
