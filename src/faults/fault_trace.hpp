// FaultTrace: an explicit, serializable per-query fault schedule.
//
// Where a FaultPlan is *generative* (probabilities + a seed), a FaultTrace
// is *extensional*: the literal list of fault events, each pinned to the
// query index at which it fires. A trace can be
//
//   - recorded from any FaultyChannel run (`record`) — the channel's
//     FaultLog *is* the schedule, since fault injection is a pure function
//     of (plan, query index);
//   - replayed verbatim by a FaultyChannel built from the trace, which
//     consumes no RNG and reproduces the exact same sequence of injected
//     faults on any inner channel — the replay half of the chaos engine's
//     record/replay loop — and re-recorded from that channel by the same
//     `record`;
//   - round-tripped through a compact one-line spec (`to_spec`/`parse`),
//     which is how the delta-debugging shrinker emits minimal reproducers
//     and how regression tests pin them down.
//
// Spec grammar (comma-separated):
//
//   trace      := "lossy=" ("0"|"1") ("," event)*
//   event      := at ":" kind [":" node]
//   kind       := "fe" | "dg" | "sp" | "cr" | "rb"
//
// e.g. "lossy=1,3:fe,10:cr:2,15:rb:2". `cr`/`rb` require a node; `fe`/`sp`
// forbid one; `dg` takes an optional node (the capture that was downgraded
// when recorded — ignored on replay, where the actual captured node is
// logged). The `lossy` bit preserves the recording channel's lossy() claim
// so the engine's soundness gate behaves identically under replay.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_log.hpp"

namespace tcast::faults {

class FaultyChannel;

struct FaultTrace {
  std::vector<FaultEvent> events;
  /// Whether the recording fault layer declared itself lossy(); a
  /// FaultyChannel replaying the trace reports at least this.
  bool lossy = false;

  /// Snapshots a FaultyChannel's injected-fault schedule (its FaultLog)
  /// plus its lossy() claim, whether it drew from a plan or replayed a
  /// trace. Record after the run completes.
  static FaultTrace record(const FaultyChannel& channel);

  /// Parses the spec grammar above; nullopt on any malformed token,
  /// missing/forbidden node, or unknown kind.
  static std::optional<FaultTrace> parse(std::string_view text);

  /// Canonical one-line spec; `parse(to_spec(t)) == t` for every trace.
  std::string to_spec() const;

  bool operator==(const FaultTrace&) const = default;
};

}  // namespace tcast::faults
