// Deterministic pseudo-random number generation for reproducible experiments.
//
// Design:
//  * `SplitMix64` — tiny stateless-seeding generator, used only to expand a
//    user seed into generator state (the construction recommended by the
//    xoshiro authors).
//  * `Xoshiro256pp` — xoshiro256++ 1.0 (Blackman & Vigna), the workhorse
//    engine. Satisfies std::uniform_random_bit_generator so it plugs into
//    <random> distributions.
//  * `RngStream` — a convenience wrapper bundling an engine with the common
//    sampling operations the simulators need (uniform ints/reals, normals,
//    Bernoulli, Fisher-Yates shuffle, subset sampling).
//
// Stream independence: `RngStream(seed, stream)` hashes (seed, stream) through
// SplitMix64 into a fresh 256-bit state, so every Monte-Carlo trial and every
// simulated node can own a statistically independent stream while the whole
// experiment stays a pure function of one root seed.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace tcast {

namespace detail {

// GCC/Clang always provide __int128 on 64-bit targets; __extension__
// silences -Wpedantic about it being non-ISO.
__extension__ using Uint128 = unsigned __int128;

/// uniform_below's multipliers m = floor((2^64 - 1) / b) for every bound b
/// from 2 to 4,097, indexed by b (entries 0 and 1 are unused). The
/// Monte-Carlo hot loops (Fisher-Yates over n candidates, positive-set
/// sampling) draw at every bound up to n, so any n up to 4,097 divides
/// nothing. Computed at compile time and defined once, in rng.cpp: the
/// table is read-only data that every thread shares, so no thread keeps
/// its own copy (a per-thread cache would cost every thread its size in
/// resident memory and a zero-fill at start), and no lookup allocates.
extern const std::array<std::uint64_t, 4098> kReciprocals;

}  // namespace detail

/// SplitMix64: used for state expansion / hashing seeds, not as a main engine.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0. Public domain algorithm by David Blackman and
/// Sebastiano Vigna; reimplemented here for hermetic builds.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds state via SplitMix64 expansion of (seed, stream).
  explicit Xoshiro256pp(std::uint64_t seed, std::uint64_t stream = 0) {
    SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
    for (auto& s : state_) s = sm.next();
    // All-zero state is invalid; SplitMix64 cannot emit 4 zeros for any seed,
    // but keep the guard for documentation value.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
      state_[0] = 1;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// An independent random stream plus the sampling toolkit used across the
/// simulators. Cheap to copy; copying forks the stream deterministically.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed, std::uint64_t stream = 0)
      : engine_(seed, stream) {}

  /// Raw 64 random bits.
  std::uint64_t bits() { return engine_(); }

  /// Uniform integer in [0, bound), exactly unbiased. The classic
  /// rejection loop, with the threshold and the modulo evaluated through
  /// the reciprocal m = floor((2^64 - 1) / bound): read from the shared
  /// table detail::kReciprocals up to bound 4,097, one division beyond it.
  /// Draw-for-draw identical to the two-division loop `threshold = (0 -
  /// bound) % bound; draw until r >= threshold; return r % bound` — same
  /// engine draws consumed, same values returned, for every bound — which
  /// rng_test proves exhaustively at the edge bounds and randomly in
  /// between.
  std::uint64_t uniform_below(std::uint64_t bound) {
    TCAST_CHECK(bound > 0);
    if ((bound & (bound - 1)) == 0) {
      // Power of two (including 1): 2^64 mod bound == 0, so the first draw
      // is always accepted and the modulo is a mask.
      return engine_() & (bound - 1);
    }
    const std::uint64_t m = bound < detail::kReciprocals.size()
                                ? detail::kReciprocals[bound]
                                : ~std::uint64_t{0} / bound;
    // 2^64 mod bound = 2^64 - m·bound, in wrapping u64 arithmetic.
    const std::uint64_t threshold = 0 - m * bound;
    for (;;) {
      const std::uint64_t r = engine_();
      if (r < threshold) continue;
      // q̂ = floor(r·m / 2^64) ∈ {q-1, q} for the true quotient q = r/bound
      // (proof: m = (2^64-θ)/bound with θ < bound, so r·m/2^64 lies in
      // (r/bound - 1, r/bound]), hence one conditional subtract corrects.
      const std::uint64_t qhat = static_cast<std::uint64_t>(
          (static_cast<detail::Uint128>(r) * m) >> 64);
      std::uint64_t rem = r - qhat * bound;
      if (rem >= bound) rem -= bound;
      return rem;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    TCAST_CHECK(lo <= hi);
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(range == 0 ? engine_()
                                                     : uniform_below(range));
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// bernoulli(p) as an integer compare, for loops that draw many trials at
  /// one p: `bernoulli_below(bernoulli_threshold(p))` consumes the same
  /// draw and returns the same value as `bernoulli(p)`. Exact: uniform01()
  /// is u·2^-53 for the integer u = bits >> 11 < 2^53, and both the
  /// conversion and the scaling are exact, so u·2^-53 < p holds exactly
  /// when u < p·2^53. Scaling by 2^53 is exact for every p in [0, 1], and
  /// for an integer u that is u < ceil(p·2^53): 2^53 at p = 1 (always
  /// true), 0 at p = 0 (never).
  static std::uint64_t bernoulli_threshold(double p) {
    TCAST_DCHECK(p >= 0.0 && p <= 1.0);
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
  bool bernoulli_below(std::uint64_t threshold) {
    return (engine_() >> 11) < threshold;
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    TCAST_CHECK(lo <= hi);
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli trial.
  bool bernoulli(double p) {
    TCAST_DCHECK(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
  }

  /// Standard normal via Box-Muller (no state caching: simple & deterministic).
  double normal() {
    double u1 = uniform01();
    while (u1 <= 0.0) u1 = uniform01();
    const double u2 = uniform01();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.141592653589793238462643383279502884 * u2);
  }

  double normal(double mean, double stddev) {
    TCAST_CHECK(stddev >= 0.0);
    return mean + stddev * normal();
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Draws a uniformly random k-subset of [0, n) (IDs, sorted ascending).
  std::vector<NodeId> sample_subset(std::size_t n, std::size_t k) {
    TCAST_CHECK(k <= n);
    std::vector<NodeId> pool(n);
    for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<NodeId>(i);
    // Partial Fisher-Yates: first k entries become the sample.
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(uniform_below(n - i));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    std::sort(pool.begin(), pool.end());
    return pool;
  }

  /// Access the raw engine for <random> distributions.
  Xoshiro256pp& engine() { return engine_; }

 private:
  Xoshiro256pp engine_;
};

/// Derives the per-trial stream id used by the Monte-Carlo driver, kept in
/// one place so tests can reproduce individual trials.
std::uint64_t trial_stream_id(std::uint64_t experiment_id, std::uint64_t trial);

}  // namespace tcast
