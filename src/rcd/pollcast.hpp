// pollcast (Demirbas et al., INFOCOM'08): the original CCA-based RCD
// primitive, extended here with the 2+ collision model.
//
// Two phases:
//   1. The initiator broadcasts the poll (predicate + bin) — as in backcast
//      we split this into a per-round Predicate/assignment broadcast and a
//      cheap per-bin Poll frame.
//   2. Every positive node in the polled bin transmits a Reply frame after
//      one SIFS (simultaneously, since they are all triggered by the same
//      poll). The initiator watches the channel:
//        - any energy in the vote window  → the bin is non-empty (1+);
//        - a decoded Reply frame          → that node's identity is known
//                                           (the 2+ model's capture effect;
//                                           a clean lone reply decodes with
//                                           certainty).
//
// Unlike backcast, replies are distinct frames, so collisions are
// destructive and identity capture is possible. Which one the initiator
// gets is the radio CaptureModel's business.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "radio/radio.hpp"
#include "rcd/addressing.hpp"
#include "sim/timer.hpp"

namespace tcast::rcd {

/// Participant-side pollcast logic.
class PollcastResponder {
 public:
  using PredicateEval = std::function<bool(std::uint8_t predicate_id)>;

  PollcastResponder(radio::Radio& r, PredicateEval eval);

  /// Feed every received frame here. Returns true if consumed.
  bool on_frame(const radio::Frame& f);

  std::optional<std::uint16_t> my_bin() const { return my_bin_; }

 private:
  radio::Radio* radio_;
  sim::Simulator* sim_;
  PredicateEval eval_;
  bool positive_ = false;
  std::optional<std::uint16_t> my_bin_;  ///< set iff positive and in round
  /// Session of the Predicate frame my_bin_ came from. A node that missed a
  /// later announce must not answer that session's polls from a stale bin.
  std::uint32_t session_ = 0;
};

/// Initiator-side pollcast.
class PollcastInitiator {
 public:
  /// Extra guard time appended to the vote window.
  static constexpr SimTime kSlack = 2 * 192 * kMicrosecond;

  struct PollResult {
    bool activity = false;  ///< energy detected in the vote window
    std::optional<NodeId> captured;  ///< decoded Reply, if any
  };

  explicit PollcastInitiator(radio::Radio& r);

  /// Broadcasts the predicate + assignment (phase 1 for the whole round).
  void announce(std::uint8_t predicate_id, std::uint32_t session,
                std::vector<std::uint16_t> assignment,
                std::function<void()> done);

  /// Polls bin g and reports after the vote window.
  void poll_bin(std::uint16_t bin, std::function<void(PollResult)> done);

  /// Feed frames received by the initiator radio.
  bool on_frame(const radio::Frame& f, const radio::RxInfo& info);

  /// Feed channel-activity indications from the initiator radio.
  void on_activity(SimTime start, SimTime end);

 private:
  radio::Radio* radio_;
  sim::Simulator* sim_;
  sim::Timer window_timer_;
  std::uint8_t next_seq_ = 1;
  std::uint32_t outstanding_session_ = 0;
  bool awaiting_votes_ = false;
  SimTime window_start_ = 0;
  PollResult pending_result_;
  std::function<void(PollResult)> poll_done_;
};

}  // namespace tcast::rcd
