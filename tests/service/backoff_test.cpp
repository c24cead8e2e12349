// Client retry policy: what retries, and that delays stay inside the
// jittered exponential envelope while honoring server hints — plus a
// seeded statistical suite pinning the jitter DISTRIBUTION (not just its
// bounds): the draw must actually fill the envelope [(1-j)·d, d], its mean
// must sit at the envelope's center, the cap must be approached
// monotonically across attempts, and a server hint must lift the whole
// envelope, not just the floor.
#include "service/backoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tcast::service {
namespace {

TEST(Backoff, RetriesOnlyRetryableStatusesWithinBudget) {
  BackoffPolicy policy;
  policy.max_retries = 2;
  EXPECT_TRUE(policy.should_retry(StatusCode::kOverloaded, 0));
  EXPECT_TRUE(policy.should_retry(StatusCode::kShardDown, 1));
  EXPECT_FALSE(policy.should_retry(StatusCode::kOverloaded, 2));
  EXPECT_FALSE(policy.should_retry(StatusCode::kOk, 0));
  EXPECT_FALSE(policy.should_retry(StatusCode::kDeadlineExceeded, 0));
  EXPECT_FALSE(policy.should_retry(StatusCode::kInvalidArgument, 0));
}

/// The exponential schedule before the hint and jitter: 2 ms · 2^attempt,
/// capped at 2 s.
double scheduled_ms(std::size_t attempt) {
  return std::min(static_cast<double>(BackoffPolicy::kBaseMs) *
                      std::pow(BackoffPolicy::kMultiplier,
                               static_cast<double>(attempt)),
                  static_cast<double>(BackoffPolicy::kMaxMs));
}

constexpr double kJitter = BackoffPolicy::kJitter;

TEST(Backoff, DelayStaysInTheJitteredExponentialEnvelope) {
  BackoffPolicy policy;  // base 2ms, x2, jitter 0.5
  RngStream rng(7, 0);
  for (std::size_t attempt = 0; attempt < 6; ++attempt) {
    const double cap = scheduled_ms(attempt);
    for (int i = 0; i < 50; ++i) {
      const auto d = policy.delay_ms(attempt, 0, rng);
      EXPECT_LE(static_cast<double>(d), cap + 1.0) << "attempt " << attempt;
      EXPECT_GE(static_cast<double>(d), (1.0 - kJitter) * cap - 1.0)
          << "attempt " << attempt;
    }
  }
}

TEST(Backoff, ServerHintActsAsFloor) {
  BackoffPolicy policy;  // base 2ms: schedule alone would allow ~2ms
  RngStream rng(7, 1);
  for (int i = 0; i < 50; ++i) {
    const auto d = policy.delay_ms(0, 500, rng);
    // The hint (500ms) dominates the 2ms exponential term; jitter may
    // shave at most `jitter` off the combined delay.
    EXPECT_GE(static_cast<double>(d), (1.0 - kJitter) * 500.0 - 1.0);
  }
}

TEST(Backoff, DelayNeverExceedsMax) {
  BackoffPolicy policy;  // 2 ms · 2^10 passes the 2 s cap
  RngStream rng(7, 2);
  for (std::size_t attempt = 0; attempt < 16; ++attempt)
    EXPECT_LE(policy.delay_ms(attempt, 0, rng), BackoffPolicy::kMaxMs);
}

struct Envelope {
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  double mean = 0.0;
};

Envelope sample_envelope(const BackoffPolicy& policy, std::size_t attempt,
                         std::uint64_t hint, RngStream& rng,
                         std::size_t draws = 4000) {
  Envelope e;
  double sum = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    const auto d = policy.delay_ms(attempt, hint, rng);
    e.min = std::min(e.min, d);
    e.max = std::max(e.max, d);
    sum += static_cast<double>(d);
  }
  e.mean = sum / static_cast<double>(draws);
  return e;
}

TEST(Backoff, JitterFillsTheWholeEnvelopeStatistically) {
  // 4000 seeded draws per attempt: the observed extremes must come within
  // 2% of the theoretical envelope edges (a bounds-only test passes even
  // if jitter silently collapses to a constant), and the mean must sit at
  // the envelope center — uniform jitter, not merely bounded jitter.
  BackoffPolicy policy;  // base 2ms, x2, max 2000ms, jitter 0.5
  RngStream rng(0xbacc, 1);
  for (const std::size_t attempt : {std::size_t{2}, std::size_t{5}}) {
    const double d = scheduled_ms(attempt);
    const double lo = (1.0 - kJitter) * d;
    const double span = d - lo;
    const auto e = sample_envelope(policy, attempt, 0, rng);
    EXPECT_LE(static_cast<double>(e.min), lo + 0.02 * span + 1.0)
        << "attempt " << attempt;
    EXPECT_GE(static_cast<double>(e.max), d - 0.02 * span - 1.0)
        << "attempt " << attempt;
    EXPECT_LE(static_cast<double>(e.max), d + 1.0) << "attempt " << attempt;
    EXPECT_GE(static_cast<double>(e.min), lo - 1.0) << "attempt " << attempt;
    // Uniform over [lo, d] ⇒ mean at the center; 4000 draws put the
    // standard error around span/110, so 5% of span is a ~5σ band.
    EXPECT_NEAR(e.mean, (lo + d) / 2.0, 0.05 * span + 1.0)
        << "attempt " << attempt;
  }
}

TEST(Backoff, EnvelopeGrowsMonotonicallyThenPinsAtTheCap) {
  // The per-attempt envelope mean must be nondecreasing across attempts
  // and saturate exactly once the exponential schedule crosses kMaxMs —
  // the cap is a ceiling the schedule sticks to, not a wrap or a reset.
  BackoffPolicy policy;  // caps from attempt 10 (2·2^10 > 2000) onward
  RngStream rng(0xbacc, 2);
  double prev_mean = -1.0;
  const double max = static_cast<double>(BackoffPolicy::kMaxMs);
  for (std::size_t attempt = 0; attempt < 14; ++attempt) {
    const auto e = sample_envelope(policy, attempt, 0, rng, 2000);
    EXPECT_GE(e.mean, prev_mean - 1.0) << "attempt " << attempt;
    EXPECT_LE(e.max, BackoffPolicy::kMaxMs) << "attempt " << attempt;
    prev_mean = e.mean;
    if (attempt >= 10) {
      // Saturated: the envelope is [(1-j)·max, max] regardless of attempt.
      const double lo = (1.0 - kJitter) * max;
      EXPECT_NEAR(e.mean, (lo + max) / 2.0, 0.05 * (max - lo) + 1.0)
          << "attempt " << attempt;
    }
  }
}

TEST(Backoff, ServerHintLiftsTheWholeEnvelope) {
  // A hint above the schedule re-centers the whole distribution on the
  // hint's envelope: draws spread across [(1-j)·hint, hint] — the hint
  // overrides the exponential term rather than merely clipping the floor.
  BackoffPolicy policy;  // base 2ms: schedule says ~2ms at attempt 0
  RngStream rng(0xbacc, 3);
  const double hint = 800.0;
  const double lo = (1.0 - kJitter) * hint;
  const double span = hint - lo;
  const auto e = sample_envelope(policy, 0, 800, rng);
  EXPECT_GE(static_cast<double>(e.min), lo - 1.0);
  EXPECT_LE(static_cast<double>(e.max), hint + 1.0);
  EXPECT_LE(static_cast<double>(e.min), lo + 0.02 * span + 1.0);
  EXPECT_GE(static_cast<double>(e.max), hint - 0.02 * span - 1.0);
  EXPECT_NEAR(e.mean, (lo + hint) / 2.0, 0.05 * span + 1.0);
  // And the hint is ignored when the schedule already exceeds it: attempt
  // 9 schedules 1,024 ms against a 5 ms hint.
  const auto scheduled = sample_envelope(policy, 9, 5, rng, 500);
  EXPECT_GE(static_cast<double>(scheduled.min),
            (1.0 - kJitter) * 1024.0 - 1.0);
}

}  // namespace
}  // namespace tcast::service
