// Packet-tier CSMA-CA MAC (802.15.4 unslotted flavour) on top of the radio,
// for tests that want contention-based traffic in the discrete-event world:
// the channel's draw-order contract test queues sends from inside a drain,
// and the spatial tests pit CSMA senders against hidden terminals. No
// library code sends through it; the paper's CSMA baseline is the slot
// model in core/baselines.hpp.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>

#include "radio/radio.hpp"
#include "sim/simulator.hpp"

namespace tcast::mac {

class CsmaMac {
 public:
  static constexpr std::size_t kMinBe = 3;        ///< macMinBE
  static constexpr std::size_t kMaxBe = 5;        ///< macMaxBE
  static constexpr std::size_t kMaxBackoffs = 4;  ///< macMaxCSMABackoffs
  /// aUnitBackoffPeriod (20 symbols at 16 µs).
  static constexpr SimTime kBackoffSlot = 320 * kMicrosecond;

  /// Called when the frame left the air (true) or was dropped after
  /// exhausting backoffs (false).
  using SendDone = std::function<void(bool ok)>;

  explicit CsmaMac(radio::Radio& r);

  /// Enqueues a frame; frames go out in FIFO order.
  void send(radio::Frame f, SendDone done = nullptr);

  std::size_t queue_depth() const { return queue_.size(); }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct Pending {
    radio::Frame frame;
    SendDone done;
    std::size_t be;
    std::size_t backoffs;
  };

  void start_attempt();
  void backoff_expired();

  radio::Radio* radio_;
  sim::Simulator* sim_;
  std::deque<Pending> queue_;
  bool attempt_in_flight_ = false;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace tcast::mac
