#include "service/backoff.hpp"

#include <algorithm>
#include <cmath>

namespace tcast::service {

std::uint64_t BackoffPolicy::delay_ms(std::size_t attempt,
                                      std::uint64_t retry_after_hint,
                                      RngStream& rng) const {
  double d = static_cast<double>(kBaseMs) *
             std::pow(kMultiplier, static_cast<double>(attempt));
  d = std::min(d, static_cast<double>(kMaxMs));
  d = std::max(d, static_cast<double>(retry_after_hint));
  const double scaled = d * (1.0 - kJitter * rng.uniform01());
  return static_cast<std::uint64_t>(std::llround(std::max(scaled, 0.0)));
}

}  // namespace tcast::service
