#include "rcd/pollcast.hpp"

#include "common/check.hpp"

namespace tcast::rcd {

PollcastResponder::PollcastResponder(radio::Radio& r, PredicateEval eval)
    : radio_(&r), sim_(&r.simulator()), eval_(std::move(eval)) {
  TCAST_CHECK(eval_ != nullptr);
  // Pollcast replies are explicit frames; hardware acking stays out of the
  // vote window.
  radio_->set_auto_ack(false);
}

bool PollcastResponder::on_frame(const radio::Frame& f) {
  switch (f.type) {
    case radio::FrameType::kPredicate: {
      const auto me = static_cast<std::size_t>(radio_->owner());
      std::uint16_t bin = kNotInRound;
      if (me < f.assignment.size()) bin = f.assignment[me];
      positive_ = bin != kNotInRound && eval_(f.predicate_id);
      my_bin_ = positive_ ? std::optional<std::uint16_t>(bin) : std::nullopt;
      session_ = f.session;
      return true;
    }
    case radio::FrameType::kPoll: {
      if (f.session != session_) return true;
      if (!positive_ || !my_bin_ || *my_bin_ != f.bin_index) return true;
      // Capture only the fields the reply derives from (15 bytes): a
      // by-value Frame would push the closure past std::function's inline
      // buffer and cost one heap allocation per reply.
      sim_->schedule_after(
          radio::kSifs,
          [this, session = f.session, dest = f.src, seq = f.seq] {
            if (!radio_->is_on() || radio_->transmitting()) return;
            radio::Frame reply;
            reply.type = radio::FrameType::kReply;
            reply.src = participant_addr(radio_->owner());
            reply.dest = dest;  // whoever polled collects the votes
            reply.seq = seq;
            reply.session = session;
            radio_->transmit(std::move(reply));
          });
      return true;
    }
    default:
      return false;
  }
}

PollcastInitiator::PollcastInitiator(radio::Radio& r)
    : radio_(&r),
      sim_(&r.simulator()),
      window_timer_(r.simulator(), [this] {
        TCAST_CHECK(awaiting_votes_);
        awaiting_votes_ = false;
        auto done = std::move(poll_done_);
        poll_done_ = nullptr;
        done(pending_result_);
      }) {
  radio_->set_auto_ack(false);
}

void PollcastInitiator::announce(std::uint8_t predicate_id,
                                 std::uint32_t session,
                                 std::vector<std::uint16_t> assignment,
                                 std::function<void()> done) {
  TCAST_CHECK_MSG(!awaiting_votes_, "announce during an open vote window");
  radio::Frame f;
  f.type = radio::FrameType::kPredicate;
  f.src = radio_->short_address();
  f.dest = radio::kBroadcastAddr;
  f.seq = next_seq_++;
  f.session = session;
  f.predicate_id = predicate_id;
  f.assignment = std::move(assignment);
  outstanding_session_ = session;
  const SimTime settle = radio_->channel().airtime(f) + radio::kTurnaround;
  radio_->transmit(std::move(f));
  sim_->schedule_after(settle, std::move(done));
}

void PollcastInitiator::poll_bin(std::uint16_t bin,
                                 std::function<void(PollResult)> done) {
  TCAST_CHECK_MSG(!awaiting_votes_, "one poll at a time");
  radio::Frame f;
  f.type = radio::FrameType::kPoll;
  f.src = radio_->short_address();
  f.dest = radio::kBroadcastAddr;  // bin filtering is in the payload
  f.seq = next_seq_++;
  f.session = outstanding_session_;
  f.bin_index = bin;

  radio::Frame probe;  // a representative Reply, for window sizing
  probe.type = radio::FrameType::kReply;
  const SimTime window = radio_->channel().airtime(f) + radio::kSifs +
                         radio_->channel().airtime(probe) + kSlack;
  awaiting_votes_ = true;
  pending_result_ = PollResult{};
  poll_done_ = std::move(done);
  window_start_ = sim_->now() + radio_->channel().airtime(f);
  radio_->transmit(std::move(f));
  window_timer_.start_one_shot(window);
}

bool PollcastInitiator::on_frame(const radio::Frame& f,
                                 const radio::RxInfo& info) {
  (void)info;
  if (!awaiting_votes_) return false;
  if (f.type != radio::FrameType::kReply) return false;
  if (f.session != outstanding_session_) return false;
  pending_result_.activity = true;
  pending_result_.captured = addr_to_participant(f.src);
  return true;
}

void PollcastInitiator::on_activity(SimTime start, SimTime end) {
  (void)start;
  if (!awaiting_votes_) return;
  // Energy overlapping the vote window counts (RCD is receiver-side: the
  // initiator samples CCA/RSSI after its own poll transmission, so any
  // cluster whose energy extends past the poll is sensed — including
  // foreign traffic, which is pollcast's interference weakness).
  if (end > window_start_) pending_result_.activity = true;
}

}  // namespace tcast::rcd
