// Probabilistic ABNS (Sec. V-D).
//
// One sampling query sharpens the initial estimate: build a single bin by
// including each candidate with probability 2/t and query it.
//   * empty      → deduce x < t/2 and run ABNS with p0 = t/4
//                  (where ABNS clearly beats 2tBins, Fig. 5);
//   * non-empty  → deduce x > t/2 and simply run 2tBins
//                  (which is near-oracle in that regime).
// The hint costs exactly one query and needs no bimodality assumption.
#pragma once

#include "core/round_engine.hpp"

namespace tcast::core {

ThresholdOutcome run_probabilistic_abns(
    group::QueryChannel& channel, std::span<const NodeId> participants,
    std::size_t t, RngStream& rng, const EngineOptions& opts = {});

}  // namespace tcast::core
