// The engine's loss-soundness gate, opened the way a channel that lies about
// loss would open it. The engine credits an undecoded-activity bin with ≥2
// positives only when the channel does not declare lossy(), because a lone
// reply that fails to decode reads as activity. A recorded FaultTrace keeps
// the recording channel's lossy() claim; replayed with that bit cleared,
// FaultyChannel reads lossless, the credit comes back on, and a downgraded
// lone capture counts twice.
#pragma once

#include "chaos/chaos_engine.hpp"

namespace tcast::chaos {

/// 2tbins on the exact tier under heavy Gilbert–Elliott loss with
/// downgraded captures: the sessions where the lie turns into false "yes"
/// verdicts.
inline CampaignConfig gate_hole_campaign() {
  CampaignConfig cfg;
  cfg.algorithms = {"2tbins"};
  cfg.tiers = {Tier::kExact};
  faults::FaultPlan heavy;
  heavy.process = faults::FaultPlan::LossProcess::kGilbertElliott;
  heavy.ge_enter_bad = 0.3;
  heavy.ge_exit_bad = 0.2;
  heavy.ge_loss_bad = 0.8;
  // The hole needs a downgraded capture to exploit: a lone positive whose
  // decode failure reads as activity gets credited as ≥2.
  heavy.capture_downgrade = 0.4;
  cfg.plans = {heavy};
  cfg.sessions_per_cell = 64;
  cfg.seed = 11;
  cfg.max_exact_n = 32;
  return cfg;
}

/// Replays a live session's recorded fault trace with its `lossy` bit
/// cleared.
inline SessionReport replay_claiming_no_loss(const SessionReport& live) {
  faults::FaultTrace trace = live.trace;
  trace.lossy = false;
  return replay_session(live.scenario, trace);
}

}  // namespace tcast::chaos
