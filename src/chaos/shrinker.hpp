// Delta-debugging shrinker for violating fault traces.
//
// A chaos campaign hands back (scenario, trace) pairs that tripped a
// conformance monitor. Those traces are long — hundreds of events from
// thousands of queries — and almost all of it is noise. The shrinker
// minimizes a trace while preserving the failure:
//
//   1. ddmin over the event list (Zeller's delta debugging): drop
//      complement chunks at doubling granularity until the trace is
//      1-minimal — removing any single event makes the violation vanish;
//   2. query-index compaction: greedily pull each event's at_query down
//      toward its predecessor, shrinking the query prefix the reproducer
//      has to execute;
//   3. iterate 1–2 to a fixed point.
//
// The predicate re-runs the scenario under replay_session each probe, so
// whatever monitors fired originally judge every candidate. The result is
// a one-line replay spec plus a ready-to-paste regression-test stanza —
// the chaos pipeline's terminal artifact.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "chaos/chaos_engine.hpp"
#include "faults/fault_trace.hpp"

namespace tcast::chaos {

/// Judges whether a candidate trace still reproduces the failure. Must be
/// deterministic (replay_session is).
using TracePredicate =
    std::function<bool(const ChaosScenario&, const faults::FaultTrace&)>;

/// Any conformance violation survives the replay.
TracePredicate violates_any();

/// A wrong final verdict survives — specifically a false "yes" (decision
/// true with ground truth below threshold), the soundness hole a trace
/// replayed with its `lossy` bit cleared re-opens.
TracePredicate violates_false_yes();

struct ShrinkResult {
  ChaosScenario scenario;
  faults::FaultTrace trace;       ///< the minimized reproducer
  std::size_t original_events = 0;
  std::size_t probes = 0;         ///< predicate evaluations spent

  /// One line that pins the reproducer: "<scenario spec> trace=<trace spec>".
  std::string replay_spec() const;

  /// A ready-to-paste GTest stanza replaying the reproducer and asserting
  /// the violation still fires.
  std::string regression_stanza(std::string_view test_name) const;
};

/// Minimizes `trace` under `pred` (which must hold for the input pair —
/// checked). Deterministic: same inputs, same minimized trace.
ShrinkResult shrink(const ChaosScenario& scenario, faults::FaultTrace trace,
                    const TracePredicate& pred);

}  // namespace tcast::chaos
