#include "csma_mac.hpp"

#include "common/check.hpp"

namespace tcast::mac {

CsmaMac::CsmaMac(radio::Radio& r) : radio_(&r), sim_(&r.simulator()) {}

void CsmaMac::send(radio::Frame f, SendDone done) {
  queue_.push_back(Pending{std::move(f), std::move(done), kMinBe, 0});
  if (!attempt_in_flight_) start_attempt();
}

void CsmaMac::start_attempt() {
  TCAST_CHECK(!queue_.empty());
  attempt_in_flight_ = true;
  Pending& p = queue_.front();
  const std::size_t window = std::size_t{1} << p.be;
  const auto slots = sim_->rng().uniform_below(window);
  const SimTime delay = static_cast<SimTime>(slots) * kBackoffSlot;
  sim_->schedule_after(delay, [this] { backoff_expired(); });
}

void CsmaMac::backoff_expired() {
  Pending& p = queue_.front();
  if (radio_->cca_clear() && !radio_->transmitting()) {
    radio_->transmit(p.frame);
    ++frames_sent_;
    if (p.done) p.done(true);
    queue_.pop_front();
  } else {
    p.be = std::min(p.be + 1, kMaxBe);
    ++p.backoffs;
    if (p.backoffs > kMaxBackoffs) {
      ++frames_dropped_;
      if (p.done) p.done(false);
      queue_.pop_front();
    }
  }
  attempt_in_flight_ = false;
  if (!queue_.empty()) start_attempt();
}

}  // namespace tcast::mac
