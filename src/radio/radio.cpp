#include "radio/radio.hpp"

namespace tcast::radio {

Radio::Radio(Channel& channel, NodeId owner, ShortAddr short_addr)
    : channel_(&channel),
      sim_(&channel.simulator()),
      owner_(owner),
      short_addr_(short_addr) {
  channel_->attach(*this);
}

Radio::~Radio() { channel_->detach(*this); }

void Radio::power_on() {
  if (state_ == RadioState::kOff) set_state(RadioState::kRx);
}

void Radio::power_off() {
  // A transmission already on the air completes at the channel level; the
  // radio simply stops listening.
  set_state(RadioState::kOff);
}

void Radio::transmit(Frame f) {
  TCAST_CHECK_MSG(is_on(), "transmit on a powered-off radio");
  TCAST_CHECK_MSG(state_ != RadioState::kTx, "radio is half-duplex");
  set_state(RadioState::kTx);
  channel_->begin_transmission(*this, std::move(f));
}

void Radio::channel_tx_done() {
  if (state_ == RadioState::kTx) set_state(RadioState::kRx);
}

void Radio::channel_deliver(const Frame& f, const RxInfo& info) {
  ++frames_received_;
  // Hardware acknowledgement: below software, after one turnaround, for
  // accepted non-ACK frames that request it. This is what backcast leans on:
  // every matching receiver HACKs at exactly the same instant.
  if (auto_ack_ && f.ack_request && f.type != FrameType::kHack &&
      f.type != FrameType::kAck) {
    // Capture only the fields the HACK derives from: a by-value Frame would
    // push the closure past std::function's inline buffer and cost one heap
    // allocation per acknowledgement.
    sim_->schedule_after(kTurnaround,
                         [this, seq = f.seq, dest = f.src] {
                           if (state_ == RadioState::kRx)
                             transmit(make_hack(seq, dest));
                         });
  }
  if (on_receive_) on_receive_(f, info);
}

void Radio::set_state(RadioState s) {
  if (s == state_) return;
  energy_.transition(s, sim_->now());
  state_ = s;
}

}  // namespace tcast::radio
