#include "radio/channel.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/check.hpp"
#include "radio/radio.hpp"

namespace tcast::radio {

Channel::Channel(sim::Simulator& simulator, ChannelConfig cfg)
    : sim_(&simulator), cfg_(std::move(cfg)) {
  if (!cfg_.capture) cfg_.capture = std::make_shared<NoCaptureModel>();
}

void Channel::attach(Radio& r) { slots_.push_back(Slot{.radio = &r}); }

void Channel::detach(Radio& r) {
  const auto it = std::find_if(slots_.rbegin(), slots_.rend(),
                               [&r](const Slot& s) { return s.radio == &r; });
  TCAST_CHECK(it != slots_.rend());
  if (it->on_air > 0) --open_;
  slots_.erase(std::next(it).base());
}

std::vector<Channel::Slot>::const_iterator Channel::slot_of(
    const Radio& r) const {
  return std::find_if(slots_.begin(), slots_.end(),
                      [&r](const Slot& s) { return s.radio == &r; });
}

Channel::Tx* Channel::acquire_tx() {
  if (tx_free_.empty())
    tx_free_.push_back(tx_pool_.emplace_back(std::make_unique<Tx>()).get());
  Tx* tx = tx_free_.back();
  tx_free_.pop_back();
  return tx;
}

void Channel::release_tx(Tx* tx) {
  TCAST_CHECK(tx->refs > 0);
  if (--tx->refs == 0) tx_free_.push_back(tx);
}

bool Channel::in_range(const Radio& a, const Radio& b) const {
  if (cfg_.range <= 0.0) return true;
  const double dx = a.pos_x() - b.pos_x();
  const double dy = a.pos_y() - b.pos_y();
  return dx * dx + dy * dy <= cfg_.range * cfg_.range;
}

bool Channel::busy_near(const Radio& listener) const {
  const auto it = slot_of(listener);
  return it != slots_.end() && it->on_air > 0;
}

bool Channel::tx_audible(const Tx& tx, const Radio& r) const {
  if (cfg_.range <= 0.0) return true;
  const double dx = tx.x - r.pos_x();
  const double dy = tx.y - r.pos_y();
  return dx * dx + dy * dy <= cfg_.range * cfg_.range;
}

void Channel::begin_transmission(Radio& sender, Frame f) {
  const SimTime now = sim_->now();
  Tx* tx = acquire_tx();
  tx->sender = &sender;
  tx->frame = std::move(f);
  tx->x = sender.pos_x();
  tx->y = sender.pos_y();
  tx->refs = 2;  // the pending end event and the log entry
  ++active_;
  const std::uint64_t pos = log_base_ + log_.size();
  log_.push_back(tx);
  // Fold the frame into the busy period of every radio that can hear it.
  for (Slot& s : slots_) {
    if (s.radio == &sender) {
      // A transmitter talking into its own open period corrupts it.
      if (s.on_air > 0) s.sent_own = true;
      continue;
    }
    if (!tx_audible(*tx, *s.radio)) continue;
    if (s.on_air++ == 0) {
      ++open_;
      s.start = now;
      s.first = pos;
      s.sent_own = s.radio->transmitting();
    } else if (s.radio->transmitting()) {
      s.sent_own = true;
    }
  }
  // [this, tx] fits std::function's inline buffer — a by-value Tx (or a
  // shared_ptr) would cost one heap closure per transmission.
  sim_->schedule_at(now + airtime(tx->frame),
                    [this, tx] { on_transmission_end(tx); });
}

void Channel::on_transmission_end(Tx* tx) {
  TCAST_CHECK(active_ > 0);
  --active_;
  if (active_ == 0) ++clusters_resolved_;  // a global busy period drained
  tx->sender->channel_tx_done();
  const SimTime now = sim_->now();
  // Receivers draw from a register copy of the simulator's stream, synced
  // around every call out of the channel: handlers and the capture model
  // draw from the stream too.
  RngStream& stream = sim_->rng();
  RngStream rng = stream;
  const auto call_out = [&](auto&& fn) {
    stream = rng;
    fn();
    rng = stream;
  };
  // By index over the radios attached now: a handler may attach another.
  for (std::size_t i = 0, n = slots_.size(); i < n; ++i) {
    Slot& s = slots_[i];
    if (s.radio == tx->sender || !tx_audible(*tx, *s.radio)) continue;
    TCAST_CHECK(s.on_air > 0);
    if (--s.on_air > 0) continue;
    // The period is closed (on_air == 0) before it is resolved: a handler
    // may transmit and reopen this very slot, so work from a copy.
    --open_;
    const Slot period = s;
    Radio& r = *period.radio;
    if (r.state() != RadioState::kRx) continue;  // off or mid-transmission
    if (!r.deaf() && r.has_activity_handler())
      call_out([&] { r.channel_activity(period.start, now); });
    if (period.sent_own) continue;  // half-duplex: sensed energy only

    // With infinite range every receiver that did not transmit into the
    // window hears all of it: reuse the summary of the same log positions.
    const std::uint64_t end = log_base_ + log_.size();
    const Window& w = cfg_.range <= 0.0 && cached_.first == period.first &&
                              cached_.end == end
                          ? cached_
                          : summarize(r, period.first, end);
    const Frame* heard = w.front;
    const bool collision = !w.identical_hacks && w.k > 1;
    if (!collision) {
      // A lone frame, or k identical HACKs superposed: one draw decides.
      if (rng.bernoulli(w.loss)) continue;
    } else {
      // Destructive collision of distinct frames: the capture effect may
      // hand the receiver one of them.
      std::optional<std::size_t> idx;
      call_out([&] { idx = cfg_.capture->captured_index(w.k, stream); });
      if (!idx) continue;
      heard = &window_frame(r, period.first, *idx);
    }
    if (r.state() != RadioState::kRx || r.deaf() ||
        !r.address_accepts(*heard))
      continue;
    const RxInfo info{.superposed = collision ? 1 : w.k,
                      .contenders = w.k,
                      .captured = collision,
                      .start = period.start,
                      .end = now};
    call_out([&] { r.channel_deliver(*heard, info); });
  }
  stream = rng;
  release_tx(tx);
  trim_log();
}

const Channel::Window& Channel::summarize(const Radio& r, std::uint64_t first,
                                          std::uint64_t end) {
  cached_ = Window{.first = first, .end = end};
  for (std::uint64_t p = first; p < end; ++p) {
    const Tx& t = *log_[p - log_base_];
    if (t.sender == &r || !tx_audible(t, r)) continue;
    if (cached_.k++ == 0) {
      cached_.front = &t.frame;
      cached_.identical_hacks = t.frame.type == FrameType::kHack;
    } else if (!hacks_identical(t.frame, *cached_.front)) {
      cached_.identical_hacks = false;
    }
  }
  TCAST_CHECK(cached_.k > 0);  // the opening frame is always heard
  cached_.loss = cached_.identical_hacks
                     ? cfg_.hack.miss_probability(cached_.k)
                     : cfg_.clean_loss;
  return cached_;
}

const Frame& Channel::window_frame(const Radio& r, std::uint64_t first,
                                   std::size_t index) const {
  for (std::uint64_t p = first;; ++p) {
    const Tx& t = *log_[p - log_base_];
    if (t.sender == &r || !tx_audible(t, r)) continue;
    if (index-- == 0) return t.frame;
  }
}

void Channel::trim_log() {
  std::uint64_t keep_from = log_base_ + log_.size();
  if (open_ > 0) {
    // Partial trims scan every slot; do one only when the log has doubled.
    if (log_.size() < trim_at_) return;
    for (const Slot& s : slots_)
      if (s.on_air > 0) keep_from = std::min(keep_from, s.first);
  }
  const auto drop = static_cast<std::size_t>(keep_from - log_base_);
  for (std::size_t i = 0; i < drop; ++i) release_tx(log_[i]);
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
  log_base_ = keep_from;
  trim_at_ = std::max(kMinTrim, 2 * log_.size());
}

}  // namespace tcast::radio
