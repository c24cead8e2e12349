// FaultyChannel: the deterministic fault-injecting QueryChannel decorator.
//
// Wraps any channel and injects faults from one of two sources: a
// FaultPlan, whose faults are drawn from a seeded private stream (a live
// run), or a FaultTrace, whose events fire verbatim at their query indexes
// with no RNG consumed (a replay). Either source fills one per-query event
// buffer before the query, and one path applies it, so a recorded schedule
// replays bit-identically. Per query (index `at`, in this decorator's own
// accounting):
//
//   1. fill the buffer. A plan draws in a fixed order, so the RNG
//      consumption per query depends on the plan alone: due reboots fire,
//      then the crash draw may take down one uniformly-random participant
//      that is up, then the loss-process draw (i.i.d. or Gilbert–Elliott),
//      the capture-downgrade draw and the spurious-activity draw. A trace
//      contributes its events at `at`, in trace order;
//   2. reboots and crashes apply — only to participants; an event naming
//      any other node is neither applied nor logged;
//   3. the query resolves against the inner channel with crashed nodes'
//      replies suppressed (they are filtered out of the queried set — a
//      crashed mote is silent, whatever its sensor holds);
//   4. the result-rewriting events apply in buffer order: false-empty turns
//      a non-empty result into silence (the HACK-loss mechanism of Fig. 4),
//      capture-downgrade turns kCaptured into kActivity (lone-reply decode
//      failure), spurious-activity turns kEmpty into kActivity (foreign
//      energy in the vote window).
//
// Every fault applied — a result rewrite only when its guard held, a crash
// or reboot only for a participant — is recorded in the FaultLog, which is
// what FaultTrace::record snapshots. The decorator declares itself lossy()
// whenever the plan can misreport (for a replay: whenever the recording
// run could), which is what trips the round engine's soundness gate and
// enables its retry policies.
//
// Frame-level fault determinism: when the inner channel exposes a
// ChannelFaultControl (the packet tier does), crash/reboot and loss faults
// are pushed *below* the query layer instead of being simulated by result
// rewriting — a crashed mote's radio powers off on the sim clock
// mid-exchange (it hears the poll, then dies before its reply turnaround),
// a reboot powers it back on, and a false-empty deafens the initiator for
// this query's exchange (applied with step 2). The draws are the same on
// every tier, so the same plan drives identical fault schedules on the
// exact and packet tiers. One semantic difference: frame-level false-empty
// is logged unconditionally (the injector cannot know whether the bin would
// have been silent anyway), while the query-layer path logs it only when it
// actually flipped a non-empty result.
//
// The oracle hook forwards, so instrumented/checked layers above keep their
// ground-truth view; ground truth is *not* consulted for injection — all
// faults are functions of (plan or trace, query index, result) only.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_log.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_trace.hpp"
#include "group/query_channel.hpp"

namespace tcast::faults {

class FaultyChannel final : public group::QueryChannel {
 public:
  /// Live run. `participants` is the crashable universe (usually
  /// inner.all_nodes()). All fault randomness derives from plan.seed —
  /// `inner`'s own RNG is untouched.
  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants, FaultPlan plan);

  /// Replay. Events fire in at_query order (ties keep trace order); events
  /// scheduled for already-passed indexes (possible only with hand-edited
  /// traces) are skipped, never applied late.
  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants,
                const FaultTrace& trace);

  const FaultLog& log() const { return log_; }

  /// Tags the fault log with a session/trial index (see FaultLog).
  void set_session(std::size_t session) { log_.set_session(session); }

  std::size_t crashed_count() const { return crashed_count_; }
  bool is_crashed(NodeId id) const {
    const auto idx = static_cast<std::size_t>(id);
    return idx < state_.size() && state_[idx] == NodeState::kDown;
  }

  bool lossy() const override { return lossy_ || inner_->lossy(); }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return inner_->oracle_positive_count(nodes);
  }

 protected:
  void do_announce(const group::BinAssignment& a) override {
    inner_->announce(a);
  }
  group::BinQueryResult do_query_bin(const group::BinAssignment& a,
                                     std::size_t idx) override;
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  enum class NodeState : std::uint8_t { kAbsent, kUp, kDown };

  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants, FaultPlan plan,
                std::vector<FaultEvent> script, bool lossy);

  /// Steps 1–2 above.
  void begin_query(QueryCount at);
  /// Step 1 for a plan: appends this query's draws to pending_.
  void draw(QueryCount at);
  /// True when the loss process fires for this query (chain stepped first).
  bool loss_draw();
  /// True when `nodes` must be filtered before the inner query (query-layer
  /// crash semantics; at the frame level the radio is off instead).
  bool filters(std::span<const NodeId> nodes) const;
  /// `nodes` without the crashed ones, in alive_.
  std::span<const NodeId> alive(std::span<const NodeId> nodes);
  /// Step 4 above.
  group::BinQueryResult end_query(group::BinQueryResult r, QueryCount at);

  group::QueryChannel* inner_;
  group::ChannelFaultControl* ctrl_ = nullptr;  ///< non-null ⇒ frame level
  FaultPlan plan_;  ///< FaultPlan{} (draws nothing) when replaying
  bool lossy_;
  RngStream rng_;
  std::vector<FaultEvent> script_;  ///< replayed events, sorted by at_query
  std::size_t cursor_ = 0;          ///< first script event not yet due
  std::vector<FaultEvent> pending_;  ///< this query's faults (reused)
  std::vector<NodeId> alive_;        ///< filtered query set (reused)
  FaultLog log_;

  std::vector<NodeId> participants_;
  std::vector<NodeState> state_;        ///< indexed by NodeId
  std::vector<QueryCount> reboot_due_;  ///< by NodeId; plan's reboot query
  std::size_t crashed_count_ = 0;
  bool ge_bad_ = false;                 ///< Gilbert–Elliott state
};

}  // namespace tcast::faults
