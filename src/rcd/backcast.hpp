// backcast (Dutta et al., HotNets'08): the robust RCD primitive.
//
// Three phases:
//   1. The initiator broadcasts a Predicate frame carrying the predicate id
//      and this round's node→bin assignment. Every positive node programs
//      its radio's *alternate* hardware address to kEphemeralBase + bin;
//      negative or excluded nodes clear it.
//   2. The initiator transmits a Poll addressed to kEphemeralBase + g with
//      the ACK-request flag set.
//   3. Every radio whose alternate address matches replies with an identical
//      hardware ACK after exactly one turnaround; the HACKs superpose
//      non-destructively and the initiator's radio latches onto the sum.
//
// Semantics are strictly 1+: a decoded HACK says "≥1 positive in bin g";
// silence says "0" (modulo the radio's false-negative rate — backcast has no
// false positives by construction, Sec. III-B of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "radio/radio.hpp"
#include "rcd/addressing.hpp"
#include "sim/timer.hpp"

namespace tcast::rcd {

/// Participant-side backcast logic. The owner (a group::PacketChannel
/// participant) forwards frames from the radio receive handler; HACK
/// emission itself is done by the radio hardware, this class only keeps the
/// alternate address current.
class BackcastResponder {
 public:
  using PredicateEval = std::function<bool(std::uint8_t predicate_id)>;

  BackcastResponder(radio::Radio& r, PredicateEval eval);

  /// Feed every received frame here. Returns true if consumed.
  bool on_frame(const radio::Frame& f);

  /// The bin this node is listening on, if any (diagnostics/tests).
  std::optional<std::uint16_t> armed_bin() const { return armed_bin_; }

 private:
  radio::Radio* radio_;
  PredicateEval eval_;
  std::optional<std::uint16_t> armed_bin_;
};

/// Initiator-side backcast.
class BackcastInitiator {
 public:
  /// Extra guard time appended to the HACK wait window.
  static constexpr SimTime kSlack = 2 * 192 * kMicrosecond;

  struct PollResult {
    bool nonempty = false;          ///< HACK superposition decoded
    std::size_t superposed = 0;     ///< #HACKs in the decoded superposition
  };

  explicit BackcastInitiator(radio::Radio& r);

  /// Phase 1. `assignment[node]` = bin or kNotInRound. `done` fires after
  /// the broadcast (plus one turnaround so responders are re-armed).
  void announce(std::uint8_t predicate_id, std::uint32_t session,
                std::vector<std::uint16_t> assignment,
                std::function<void()> done);

  /// Phases 2–3. `done` fires at the end of the HACK window.
  void poll_bin(std::uint16_t bin, std::function<void(PollResult)> done);

  /// Feed frames received by the initiator radio. Returns true if consumed.
  bool on_frame(const radio::Frame& f, const radio::RxInfo& info);

  std::uint64_t polls_sent() const { return polls_sent_; }

 private:
  radio::Radio* radio_;
  sim::Simulator* sim_;
  sim::Timer window_timer_;
  std::uint8_t next_seq_ = 1;
  std::uint8_t outstanding_seq_ = 0;
  bool awaiting_hack_ = false;
  PollResult pending_result_;
  std::function<void(PollResult)> poll_done_;
  std::uint64_t polls_sent_ = 0;
};

}  // namespace tcast::rcd
