// Wall-clock abstraction for the service tier.
//
// Deadlines, load shedding and mid-run cancellation are all *timing*
// behaviour — exactly the kind of thing that is untestable against a real
// clock. Every service component therefore reads time through this
// interface: RealClock in the daemon and the load rigs, ManualClock in the
// deterministic tests and the seeded chaos campaigns (where the campaign
// script advances time explicitly, so "the deadline expired while queued"
// is a reproducible event, not a race).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

namespace tcast::service {

/// Microseconds since an arbitrary epoch (monotonic).
using TimeUs = std::uint64_t;

/// Absolute deadline value meaning "no deadline".
inline constexpr TimeUs kNoDeadline = std::numeric_limits<TimeUs>::max();

class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeUs now_us() const = 0;
};

/// std::chrono::steady_clock.
class RealClock final : public Clock {
 public:
  TimeUs now_us() const override;
  /// Process-wide instance (stateless).
  static const RealClock& instance();
};

/// Test clock: time moves only when the test says so.
class ManualClock final : public Clock {
 public:
  TimeUs now_us() const override {
    return t_.load(std::memory_order_acquire);
  }
  void advance_us(TimeUs delta) {
    t_.fetch_add(delta, std::memory_order_acq_rel);
  }
  void set_us(TimeUs t) { t_.store(t, std::memory_order_release); }

 private:
  std::atomic<TimeUs> t_{0};
};

}  // namespace tcast::service
