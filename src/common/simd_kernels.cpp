#include "common/simd_kernels.hpp"

#include <atomic>
#include <bit>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define TCAST_SIMD_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tcast::simd {
namespace {

// ---------------------------------------------------------------------------
// Portable: plain loops with no early exit, so the auto-vectorizer is free
// to act. The fallback on any hardware without an explicit SIMD level.

std::size_t and_popcount_portable(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

std::size_t andnot_count_portable(std::uint64_t* dst, const std::uint64_t* mask,
                                  std::size_t n) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    removed += static_cast<std::size_t>(std::popcount(dst[i] & mask[i]));
    dst[i] &= ~mask[i];
  }
  return removed;
}

#if defined(TCAST_SIMD_X86)
// ---------------------------------------------------------------------------
// AVX-512 (F + BW + VPOPCNTDQ — the native 64-bit lane popcount).

#define TCAST_AVX512_TARGET "avx512f,avx512bw,avx512vpopcntdq"

// d & ~m as a ternary-logic op (truth-table imm 0x30 = A & ~B). GCC 12's
// _mm512_andnot_si512 expands through _mm512_undefined_epi32, whose fake
// "uninitialized" register trips -Wuninitialized under -Werror; pternlog
// has a clean expansion.
__attribute__((target(TCAST_AVX512_TARGET))) inline __m512i andnot_512(
    __m512i d, __m512i m) {
  return _mm512_ternarylogic_epi64(d, m, m, 0x30);
}

// Horizontal u64 sum; _mm512_reduce_add_epi64 has the same
// _mm256_undefined_si256 problem, so spill and add.
__attribute__((target(TCAST_AVX512_TARGET))) inline std::uint64_t sum_lanes_512(
    __m512i v) {
  std::uint64_t lanes[8];
  _mm512_storeu_si512(lanes, v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

__attribute__((target(TCAST_AVX512_TARGET))) std::size_t and_popcount_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  return static_cast<std::size_t>(sum_lanes_512(acc));
}

// Batched bin counts for the dominant two-word geometry (universe ≤ 128,
// words_per_bin == 2): four bins per 512-bit lane. AND against the positive
// pair replicated 4×, per-word popcount, fold each pair's halves together,
// then narrow the four even lanes to u32 in one store.
__attribute__((target(TCAST_AVX512_TARGET))) void pair_counts_avx512(
    const std::uint64_t* pos, const std::uint64_t* bins, std::size_t bin_count,
    std::uint32_t* out) {
  // maskz_ forms with a full mask: the plain intrinsics expand through
  // _mm512_undefined_epi32, which trips -Wuninitialized on GCC 12.
  const __m512i vpos = _mm512_maskz_broadcast_i32x4(
      static_cast<__mmask16>(-1),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pos)));
  std::size_t b = 0;
  for (; b + 4 <= bin_count; b += 4) {
    const __m512i v = _mm512_loadu_si512(bins + 2 * b);
    const __m512i cnt = _mm512_popcnt_epi64(_mm512_and_si512(v, vpos));
    // Swap the 64-bit halves of each 128-bit pair and add: both halves of
    // a pair now hold that bin's total. Spill and pick the even lanes —
    // the lane-compacting intrinsics expand through GCC 12's fake
    // "undefined" registers and trip -Wuninitialized (see sum_lanes_512).
    const __m512i sum = _mm512_add_epi64(
        cnt, _mm512_maskz_shuffle_epi32(static_cast<__mmask16>(-1), cnt,
                                        _MM_PERM_BADC));
    std::uint64_t lanes[8];
    _mm512_storeu_si512(lanes, sum);
    out[b] = static_cast<std::uint32_t>(lanes[0]);
    out[b + 1] = static_cast<std::uint32_t>(lanes[2]);
    out[b + 2] = static_cast<std::uint32_t>(lanes[4]);
    out[b + 3] = static_cast<std::uint32_t>(lanes[6]);
  }
  for (; b < bin_count; ++b) {
    const std::uint64_t* bin = bins + 2 * b;
    out[b] = static_cast<std::uint32_t>(std::popcount(pos[0] & bin[0]) +
                                        std::popcount(pos[1] & bin[1]));
  }
}

__attribute__((target(TCAST_AVX512_TARGET))) std::size_t andnot_count_avx512(
    std::uint64_t* dst, const std::uint64_t* mask, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vm = _mm512_loadu_si512(mask + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(vd, vm)));
    _mm512_storeu_si512(dst + i, andnot_512(vd, vm));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i vd = _mm512_maskz_loadu_epi64(tail, dst + i);
    const __m512i vm = _mm512_maskz_loadu_epi64(tail, mask + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(vd, vm)));
    _mm512_mask_storeu_epi64(dst + i, tail, andnot_512(vd, vm));
  }
  return static_cast<std::size_t>(sum_lanes_512(acc));
}
#endif  // TCAST_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.

#if defined(TCAST_SIMD_X86)
// XGETBV via inline asm: the _xgetbv intrinsic needs the whole function
// compiled with the xsave target. Only called after the OSXSAVE CPUID bit
// confirmed the instruction is enabled.
std::uint64_t read_xcr0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0u));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

bool cpu_has_avx512() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ebx & bit_AVX512F) == 0 || (ebx & bit_AVX512BW) == 0) return false;
  if ((ecx & bit_AVX512VPOPCNTDQ) == 0) return false;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0) return false;
  // ZMM state: XMM | YMM | opmask | ZMM_Hi256 | Hi16_ZMM.
  return (read_xcr0() & 0xe6) == 0xe6;
}
#endif

// kAuto sentinel: no force in effect.
constexpr int kAuto = -1;
std::atomic<int> g_forced{kAuto};

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kPortable:
      return "portable";
    case Level::kAVX512:
      return "avx512";
  }
  return "?";
}

Level best_supported() {
#if defined(TCAST_SIMD_X86)
  static const bool kAvx512 = cpu_has_avx512();
  if (kAvx512) return Level::kAVX512;
#endif
  return Level::kPortable;
}

std::vector<Level> supported_levels() {
  if (best_supported() == Level::kPortable) return {Level::kPortable};
  return {Level::kPortable, best_supported()};
}

Level active_level() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != kAuto) return static_cast<Level>(forced);
  return best_supported();
}

void force_level(Level level) {
  TCAST_CHECK_MSG(level == Level::kPortable || level == best_supported(),
                  "forced SIMD level not supported on this CPU");
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_forced_level() {
  g_forced.store(kAuto, std::memory_order_relaxed);
}

std::size_t words_andnot_count(std::uint64_t* dst, const std::uint64_t* mask,
                               std::size_t n) {
  switch (active_level()) {
#if defined(TCAST_SIMD_X86)
    case Level::kAVX512:
      return andnot_count_avx512(dst, mask, n);
#endif
    default:
      return andnot_count_portable(dst, mask, n);
  }
}

void bin_intersection_counts(const std::uint64_t* pos, std::size_t pos_words,
                             const std::uint64_t* bins,
                             std::size_t words_per_bin, std::size_t bin_count,
                             std::uint32_t* out) {
  const std::size_t n =
      pos_words < words_per_bin ? pos_words : words_per_bin;
  // Tiny images (n ≤ 2 covers every universe up to 128 nodes): one or two
  // hardware popcounts per bin beat any vector variant's setup, so take a
  // direct loop regardless of the dispatch level. Exact counts either way —
  // every level returns bit-identical results, so forcing a level for
  // differential tests still exercises the wide kernels via larger images.
  if (n == 1) {
    for (std::size_t b = 0; b < bin_count; ++b) {
      out[b] = static_cast<std::uint32_t>(
          std::popcount(pos[0] & bins[b * words_per_bin]));
    }
    return;
  }
  if (n == 2) {
#if defined(TCAST_SIMD_X86)
    // Dense pair geometry (stride == 2) gets the dedicated wide kernel when
    // the dispatch level allows; identical exact counts either way.
    if (words_per_bin == 2 && active_level() == Level::kAVX512) {
      pair_counts_avx512(pos, bins, bin_count, out);
      return;
    }
#endif
    for (std::size_t b = 0; b < bin_count; ++b) {
      const std::uint64_t* bin = bins + b * words_per_bin;
      out[b] = static_cast<std::uint32_t>(std::popcount(pos[0] & bin[0]) +
                                          std::popcount(pos[1] & bin[1]));
    }
    return;
  }
  // Dispatch once for the whole batch, not per bin.
  const Level level = active_level();
  switch (level) {
#if defined(TCAST_SIMD_X86)
    case Level::kAVX512:
      for (std::size_t b = 0; b < bin_count; ++b) {
        out[b] = static_cast<std::uint32_t>(
            and_popcount_avx512(pos, bins + b * words_per_bin, n));
      }
      return;
#endif
    default:
      for (std::size_t b = 0; b < bin_count; ++b) {
        out[b] = static_cast<std::uint32_t>(
            and_popcount_portable(pos, bins + b * words_per_bin, n));
      }
      return;
  }
}

}  // namespace tcast::simd
