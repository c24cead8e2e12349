// ChaosEngine: randomized fault campaigns with record/replay.
//
// The chaos subsystem closes the loop the fault layer opened in PR 3:
//
//   1. a ChaosScenario pins one fully-seeded chaos session — algorithm,
//      instance (n, x, t, model), tier (exact or packet), FaultPlan, retry
//      policy — and round-trips through a one-line spec;
//   2. run_session executes it under a conformance CheckedChannel with
//      every invariant monitor online, records the injected faults as a
//      FaultTrace, and reports any violations;
//   3. replay_session re-runs a (scenario, trace) pair with the
//      FaultyChannel replaying the trace — no fault RNG — reproducing the
//      recorded schedule bit-identically; on the packet tier the same trace
//      drives frame-level crash/reboot/loss through ChannelFaultControl;
//   4. run_campaign fans thousands of sessions across the registry ×
//      tier × fault-plan grid on the thread pool and collects every
//      violating (scenario, trace) pair for the shrinker.
//
// A correct engine reports zero violations across the whole grid (spurious
// -activity plans are excluded: interference can legitimately manufacture a
// false "yes", so no monitor can soundly reject it). The
// `break_counts_two_gate` knob re-opens the engine's known loss-soundness
// hole (EngineOptions::unsafe_counts_two_despite_loss) so shrinker tests
// have a real bug to minimize.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "conformance/checked_channel.hpp"
#include "core/round_engine.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_trace.hpp"
#include "group/query_channel.hpp"

namespace tcast::chaos {

/// Which channel stack resolves the queries.
enum class Tier : std::uint8_t {
  kExact,   ///< ExactChannel (abstract tier)
  kPacket,  ///< PacketChannel (packet tier; frame-level fault determinism)
};

const char* to_string(Tier t);
std::optional<Tier> parse_tier(std::string_view text);

/// One fully-seeded chaos session. A pure value: the same scenario always
/// produces the same run, fault schedule and verdict.
struct ChaosScenario {
  std::string algorithm = "2tbins";
  std::size_t n = 16;  ///< participants
  std::size_t x = 0;   ///< real positives (ground truth)
  std::size_t t = 1;   ///< threshold queried
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  Tier tier = Tier::kExact;
  faults::FaultPlan plan;
  core::RetryPolicy retry;
  /// Root seed: stream 0 draws the positive set, stream 1 the channel
  /// randomness, stream 2 the algorithm's binning.
  std::uint64_t seed = 1;
  /// TEST-ONLY: run the engine with its loss-soundness gate disabled
  /// (EngineOptions::unsafe_counts_two_despite_loss).
  bool break_counts_two_gate = false;

  bool ground_truth() const { return x >= t; }

  /// One-line spec, `;`-separated `key=value` tokens (the plan and retry
  /// specs nest commas/colons, hence the outer `;`), e.g.
  ///   "algo=2tbins;n=24;x=8;t=8;model=2+;tier=exact;seed=5;plan=iid=0.05,seed=7"
  /// `parse(spec())` reproduces the scenario exactly.
  std::string spec() const;
  static std::optional<ChaosScenario> parse(std::string_view text);

  bool operator==(const ChaosScenario&) const = default;
};

/// The verdict of one session (recorded or replayed).
struct SessionReport {
  ChaosScenario scenario;
  core::ThresholdOutcome outcome;
  /// The injected-fault schedule, recorded from the FaultyChannel's log on
  /// a live run and on a replay alike — equal on both iff the replay was
  /// faithful.
  faults::FaultTrace trace;
  std::vector<conformance::Violation> violations;
  /// Next raw RNG word of the algorithm stream after the run — a replay
  /// that consumed the identical draw sequence probes identically.
  std::uint64_t algo_rng_probe = 0;
  /// Same probe for the channel stream (exact tier only; the packet tier's
  /// randomness lives inside its simulator, probed as 0).
  std::uint64_t channel_rng_probe = 0;

  bool ok() const { return violations.empty(); }
  bool false_yes() const {
    return outcome.decision && !scenario.ground_truth();
  }
  bool false_no() const {
    return !outcome.decision && scenario.ground_truth();
  }
};

/// Executes `scenario` live: FaultyChannel draws the faults from
/// scenario.plan, every conformance monitor is online, and the injected
/// schedule is recorded as a replayable FaultTrace.
SessionReport run_session(const ChaosScenario& scenario);

/// Re-executes `scenario` with the FaultyChannel replaying `trace`
/// verbatim (zero fault RNG consumed). On the stack that recorded the trace
/// this is bit-identical: same outcome, query count, fault log, and RNG
/// probes. Crashes and reboots naming a node outside the scenario's
/// participants are ignored.
SessionReport replay_session(const ChaosScenario& scenario,
                             const faults::FaultTrace& trace);

/// The campaign's fault-plan axis: clean, i.i.d. and bursty loss, capture
/// downgrade, crash and crash+reboot mixes. Spurious activity is excluded
/// (see file comment). `seed` salts the plans' fault streams.
std::vector<faults::FaultPlan> default_plan_grid(std::uint64_t seed);

struct CampaignConfig {
  /// Algorithms to drive; empty = every non-oracle registry algorithm.
  std::vector<std::string> algorithms;
  std::vector<Tier> tiers = {Tier::kExact, Tier::kPacket};
  /// Fault plans; empty = default_plan_grid(seed).
  std::vector<faults::FaultPlan> plans;
  /// Sessions per (algorithm, tier, plan) cell.
  std::size_t sessions_per_cell = 8;
  std::uint64_t seed = 1;
  core::RetryPolicy retry;
  bool break_counts_two_gate = false;
  /// Instance-size caps: the exact tier is cheap, the packet tier
  /// co-simulates a radio world per query and must stay small.
  std::size_t max_exact_n = 48;
  std::size_t max_packet_n = 10;
  /// Worker pool; nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
};

struct CampaignResult {
  std::size_t sessions = 0;
  std::size_t faults_injected = 0;  ///< total recorded fault events
  std::size_t false_yes = 0;
  std::size_t false_no = 0;
  /// Every violating session, scenario + recorded trace — the shrinker's
  /// input. Deterministic order (by scenario index), whatever the pool.
  std::vector<SessionReport> violating;
};

/// Runs the full grid. The scenario list is a pure function of `cfg`
/// (instance sizes drawn from a dedicated stream of cfg.seed), and sessions
/// fan out over the pool via run_batch; results are bit-identical whatever
/// the worker count.
CampaignResult run_campaign(const CampaignConfig& cfg);

/// Campaign preset over the counting portfolio: every count:* adapter in
/// the registry, both tiers, and a plan axis that exercises the estimators'
/// interesting failure modes — lying silence (i.i.d. and bursty loss) and
/// mote death (crash, crash+reboot) — plus the clean control cell.
CampaignConfig counting_campaign_config(std::uint64_t seed);

}  // namespace tcast::chaos
