#include "rcd/backcast.hpp"

#include "common/check.hpp"

namespace tcast::rcd {

BackcastResponder::BackcastResponder(radio::Radio& r, PredicateEval eval)
    : radio_(&r), eval_(std::move(eval)) {
  TCAST_CHECK(eval_ != nullptr);
}

bool BackcastResponder::on_frame(const radio::Frame& f) {
  if (f.type != radio::FrameType::kPredicate) return false;
  const auto me = static_cast<std::size_t>(radio_->owner());
  std::uint16_t bin = kNotInRound;
  if (me < f.assignment.size()) bin = f.assignment[me];
  if (bin != kNotInRound && eval_(f.predicate_id)) {
    armed_bin_ = bin;
    radio_->set_alt_address(
        static_cast<radio::ShortAddr>(radio::kEphemeralBase + bin));
  } else {
    armed_bin_.reset();
    radio_->set_alt_address(std::nullopt);
  }
  return true;
}

BackcastInitiator::BackcastInitiator(radio::Radio& r)
    : radio_(&r),
      sim_(&r.simulator()),
      window_timer_(r.simulator(), [this] {
        TCAST_CHECK(awaiting_hack_);
        awaiting_hack_ = false;
        auto done = std::move(poll_done_);
        poll_done_ = nullptr;
        done(pending_result_);
      }) {
  // The initiator never HACKs anybody; it only listens for HACKs.
  radio_->set_auto_ack(false);
}

void BackcastInitiator::announce(std::uint8_t predicate_id,
                                 std::uint32_t session,
                                 std::vector<std::uint16_t> assignment,
                                 std::function<void()> done) {
  TCAST_CHECK_MSG(!awaiting_hack_, "announce during an open poll window");
  radio::Frame f;
  f.type = radio::FrameType::kPredicate;
  f.src = radio_->short_address();
  f.dest = radio::kBroadcastAddr;
  f.seq = next_seq_++;
  f.session = session;
  f.predicate_id = predicate_id;
  f.assignment = std::move(assignment);
  const SimTime settle = radio_->channel().airtime(f) + radio::kTurnaround;
  radio_->transmit(std::move(f));
  sim_->schedule_after(settle, std::move(done));
}

void BackcastInitiator::poll_bin(std::uint16_t bin,
                                 std::function<void(PollResult)> done) {
  TCAST_CHECK_MSG(!awaiting_hack_, "one poll at a time");
  TCAST_CHECK_MSG(bin < max_bins(), "bin beyond the ephemeral address block");
  radio::Frame f;
  f.type = radio::FrameType::kPoll;
  f.src = radio_->short_address();
  f.dest = static_cast<radio::ShortAddr>(radio::kEphemeralBase + bin);
  f.seq = next_seq_++;
  f.ack_request = true;
  f.bin_index = bin;
  outstanding_seq_ = f.seq;
  awaiting_hack_ = true;
  pending_result_ = PollResult{};
  poll_done_ = std::move(done);
  ++polls_sent_;

  radio::Frame hack_probe = radio::make_hack(f);
  const SimTime window = radio_->channel().airtime(f) + radio::kTurnaround +
                         radio_->channel().airtime(hack_probe) + kSlack;
  radio_->transmit(std::move(f));
  window_timer_.start_one_shot(window);
}

bool BackcastInitiator::on_frame(const radio::Frame& f,
                                 const radio::RxInfo& info) {
  if (!awaiting_hack_) return false;
  if (f.type != radio::FrameType::kHack) return false;
  if (f.seq != outstanding_seq_) return false;
  pending_result_.nonempty = true;
  pending_result_.superposed = info.superposed;
  return true;
}

}  // namespace tcast::rcd
