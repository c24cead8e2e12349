// Cross-traffic interference source (the paper's multihop future work,
// Sec. III-B).
//
// In a multihop deployment the initiator's singlehop neighbourhood overhears
// traffic from neighbouring regions. Sec. III-B argues this breaks the two
// RCD primitives differently:
//
//   * pollcast infers "non-empty" from *any* channel energy (CCA/RSSI), so
//     foreign traffic in the vote window is a false positive;
//   * backcast only accepts a decoded HACK, which foreign traffic cannot
//     forge — no false positives — but a foreign frame colliding with the
//     HACK superposition can destroy it: false negatives remain possible.
//
// InterferenceSource models a neighbouring region as a Poisson stream of
// foreign data frames on the shared channel, transmitted regardless of our
// protocol state (a different PAN does not carrier-sense our slots
// faithfully). Intensity is expressed as the long-run fraction of air time
// occupied.
#pragma once

#include <memory>
#include <utility>

#include "radio/radio.hpp"
#include "sim/timer.hpp"

namespace tcast::radio {

class InterferenceSource {
 public:
  /// Payload size of foreign frames (drives per-burst airtime).
  static constexpr std::size_t kFrameBytes = 32;
  /// Source address stamped on foreign frames (diagnostics only).
  static constexpr ShortAddr kForeignAddr = 0xBEEF;

  struct Config {
    /// Long-run fraction of air time occupied by foreign traffic, in
    /// [0, ~0.8]. 0 disables the source.
    double duty = 0.1;
    /// Placement in spatial (finite-range) channels.
    std::pair<double, double> position = {0.0, 0.0};
  };

  /// Attaches a foreign transmitter to `channel`. Starts emitting when
  /// start() is called; gaps are exponential with mean chosen so the
  /// busy fraction matches cfg.duty.
  InterferenceSource(Channel& channel, Config cfg);

  void start();
  void stop();

  std::uint64_t frames_emitted() const { return frames_emitted_; }

 private:
  void schedule_next();
  void emit();

  Channel* channel_;
  sim::Simulator* sim_;
  Config cfg_;
  std::unique_ptr<Radio> radio_;
  sim::Timer timer_;
  bool running_ = false;
  std::uint64_t frames_emitted_ = 0;
};

}  // namespace tcast::radio
