// SIMD word-set kernels — the vector substrate under NodeSet and the
// abstract tier's sweep hot loops.
//
// Every kernel operates on packed 64-bit membership words (the NodeSet /
// BinAssignment word-image layout) and comes in two implementations:
//
//   kPortable — plain loops written to auto-vectorize; the fallback on any
//               hardware without AVX-512 (AArch64 included).
//   kAVX512   — explicit 512-bit x86 paths (VPTESTMQ, VPOPCNTQ); requires
//               AVX-512 F+BW+VPOPCNTDQ.
//
// There is no AVX2 level: measured, it never beat kPortable in nine rounds
// of ten on any benchmark, while kAVX512 did on both full sweeps
// (docs/PERFORMANCE.md).
//
// Dispatch is resolved at runtime from CPUID; tests pin a level with
// force_level(). Both variants are bit-exact for any input — including odd
// word counts that exercise the vector tails — which the kernel property
// suite (tests/common/simd_kernels_test.cpp, against std::bitset and
// sorted-vector oracles) and the registry-wide differential suite
// (tests/conformance/simd_differential_test.cpp) lock down across every
// selectable level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcast::simd {

enum class Level : std::uint8_t {
  kPortable,  ///< auto-vectorization-friendly portable loops
  kAVX512,    ///< x86 512-bit (F + BW + VPOPCNTDQ)
};

const char* to_string(Level level);

/// The widest level this CPU supports (always at least kPortable).
Level best_supported();

/// Every level the kernels can run on this CPU, narrowest first. Test
/// suites iterate this to prove all selectable variants agree.
std::vector<Level> supported_levels();

/// The level the kernels currently dispatch to: the forced level if one is
/// set, else best_supported().
Level active_level();

/// Forces dispatch to `level` (which must be supported — aborts otherwise;
/// consult supported_levels() first). Test hook. Not thread-safe against
/// concurrent kernel calls mid-switch: set it before fanning out work.
void force_level(Level level);

/// Clears force_level(), returning to automatic dispatch.
void clear_forced_level();

// ---------------------------------------------------------------------------
// Kernels. `n` counts 64-bit words; callers pass min(len_a, len_b) — a
// shorter image simply has no members beyond its last word. All pointers
// need only natural (8-byte) alignment; the vector paths use unaligned
// loads.

/// Do the two word images share a set bit? (AND != 0, early exit.)
bool words_intersect(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n);

/// popcount(a & b) over n words.
std::size_t words_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);

/// dst &= ~mask over n words; returns popcount(dst & mask) — how many set
/// bits the ANDNOT actually cleared.
std::size_t words_andnot_count(std::uint64_t* dst, const std::uint64_t* mask,
                               std::size_t n);

/// Batched bin counting — the sweep kernel behind ExactChannel's announce
/// cache: out[i] = popcount(pos & bins[i * words_per_bin ...]) for every
/// bin, counting over min(pos_words, words_per_bin) words. One dispatch for
/// the whole batch.
void bin_intersection_counts(const std::uint64_t* pos, std::size_t pos_words,
                             const std::uint64_t* bins,
                             std::size_t words_per_bin, std::size_t bin_count,
                             std::uint32_t* out);

}  // namespace tcast::simd
