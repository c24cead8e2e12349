// Per-node radio state machine (CC2420-flavoured).
//
// Provides the three capabilities the tcast stack needs from hardware:
//   * hardware address recognition — a primary 16-bit short address plus an
//     optional *alternate* address slot that backcast programs with the
//     ephemeral per-bin address;
//   * automatic hardware acknowledgements (HACKs) for accepted frames whose
//     ACK-request flag is set — generated below software, identical per
//     sequence number, after exactly one turnaround time (which is what
//     makes simultaneous HACKs superpose);
//   * activity (CCA/RSSI) indications — the receiver-side collision
//     detection signal pollcast uses.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/frame.hpp"

namespace tcast::radio {

class Radio {
 public:
  using ReceiveHandler = std::function<void(const Frame&, const RxInfo&)>;
  /// Raised once per resolved cluster on listening radios, decodable or not.
  using ActivityHandler = std::function<void(SimTime start, SimTime end)>;

  Radio(Channel& channel, NodeId owner, ShortAddr short_addr);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId owner() const { return owner_; }
  sim::Simulator& simulator() { return *sim_; }
  const PhyParams& phy() const { return channel_->phy(); }
  Channel& channel() { return *channel_; }

  /// Physical placement (metres). Only meaningful when the channel has a
  /// finite reception range (multihop topologies); colocated by default.
  void set_position(double x, double y) {
    pos_x_ = x;
    pos_y_ = y;
  }
  double pos_x() const { return pos_x_; }
  double pos_y() const { return pos_y_; }

  void power_on();   ///< Off → Rx
  void power_off();  ///< any → Off; cancels nothing on-air (tx completes)

  RadioState state() const { return state_; }
  bool is_on() const { return state_ != RadioState::kOff; }

  /// Fault-injection hook: a deaf radio keeps its state machine (it still
  /// transmits, still counts as kRx for the channel's busy-period
  /// bookkeeping) but drops every delivery and activity indication at the
  /// antenna. Unlike power_off this consumes no RNG and perturbs nothing at
  /// the channel level, which is what makes frame-level false-empty faults
  /// replay bit-identically (faults/FaultyChannel).
  void set_deaf(bool deaf) { deaf_ = deaf; }
  bool deaf() const { return deaf_; }

  void set_short_address(ShortAddr a) { short_addr_ = a; }
  ShortAddr short_address() const { return short_addr_; }

  /// Programs / clears the alternate (ephemeral) hardware address — the
  /// CC2420's 16-bit short-address recognition slot.
  void set_alt_address(std::optional<ShortAddr> a) { alt_addr_ = a; }
  std::optional<ShortAddr> alt_address() const { return alt_addr_; }

  /// The second recognition slot (the CC2420's 64-bit extended address,
  /// modelled with the same 16-bit ephemeral space). Having two slots is
  /// what lets a node take part in two concurrent backcast sessions
  /// (paper Sec. IV-D.1: "enabling two concurrent backcasts at most").
  void set_ext_alt_address(std::optional<ShortAddr> a) { ext_alt_addr_ = a; }
  std::optional<ShortAddr> ext_alt_address() const { return ext_alt_addr_; }

  void set_auto_ack(bool enabled) { auto_ack_ = enabled; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_activity_handler(ActivityHandler h) { on_activity_ = std::move(h); }

  /// Begins transmitting immediately (MAC is responsible for CCA/backoff).
  /// Requires the radio to be on and not already transmitting.
  void transmit(Frame f);

  bool transmitting() const { return state_ == RadioState::kTx; }

  /// Clear-channel assessment: true when the medium is idle *as heard
  /// here* — with a finite range this is what enables hidden terminals.
  bool cca_clear() const { return !channel_->busy_near(*this); }

  EnergyMeter& energy() { return energy_; }

  /// Count of frames accepted by address filtering (diagnostics).
  std::uint64_t frames_received() const { return frames_received_; }

  // --- Channel-facing interface (not for protocol code) ---
  void channel_deliver(const Frame& f, const RxInfo& info);
  void channel_activity(SimTime start, SimTime end);
  void channel_tx_done();

 private:
  bool address_accepts(const Frame& f) const;
  void set_state(RadioState s);

  Channel* channel_;
  sim::Simulator* sim_;
  NodeId owner_;
  ShortAddr short_addr_;
  std::optional<ShortAddr> alt_addr_;
  std::optional<ShortAddr> ext_alt_addr_;
  bool auto_ack_ = true;
  RadioState state_ = RadioState::kOff;
  ReceiveHandler on_receive_;
  ActivityHandler on_activity_;
  EnergyMeter energy_;
  std::uint64_t frames_received_ = 0;
  bool deaf_ = false;
  double pos_x_ = 0.0;
  double pos_y_ = 0.0;
};

}  // namespace tcast::radio
