// Client-side retry policy: exponential backoff with full jitter, honoring
// the server's retry-after hints.
//
// The hint is a floor, not the answer: the server knows its backlog (the
// hint is backlog × EWMA service time) but not how many clients just got
// the same hint, so the client still multiplies out its own exponential
// schedule and jitters the result — synchronized retry storms are the
// classic way a recovering server gets re-killed. Shared by tcast_client,
// the tcast_cli --max-retries path, and the open-loop bench rig.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "service/status.hpp"

namespace tcast::service {

struct BackoffPolicy {
  static constexpr std::uint64_t kBaseMs = 2;
  static constexpr double kMultiplier = 2.0;
  static constexpr std::uint64_t kMaxMs = 2000;
  /// Jitter factor: the delay is drawn uniformly from [(1 - kJitter) * d, d]
  /// ("equal jitter").
  static constexpr double kJitter = 0.5;

  std::size_t max_retries = 4;

  /// Whether `status` merits attempt number `attempt` (0-based count of
  /// retries already made).
  bool should_retry(StatusCode status, std::size_t attempt) const {
    return attempt < max_retries && is_retryable(status);
  }

  /// Delay before retry number `attempt` (0-based), combining the
  /// exponential schedule with the server's hint (0 = no hint) and jitter.
  std::uint64_t delay_ms(std::size_t attempt, std::uint64_t retry_after_hint,
                         RngStream& rng) const;
};

}  // namespace tcast::service
