// Randomized scenario vocabulary for the conformance harness.
//
// A Scenario is one fully-seeded instance of the threshold-querying problem:
// population size, true positive count, threshold, collision model, engine
// options, and (optionally) an injected false-negative rate. Scenarios are a
// pure function of their seed, so every conformance failure is replayable
// from the printed Scenario alone.
#pragma once

#include <cstdint>
#include <string>

#include "core/round_engine.hpp"
#include "group/query_channel.hpp"

namespace tcast::conformance {

struct Scenario {
  std::size_t n = 16;   ///< participants
  std::size_t x = 0;    ///< real positives (ground truth)
  std::size_t t = 1;    ///< threshold queried
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  core::BinOrdering ordering = core::BinOrdering::kNonEmptyFirst;
  core::BinningScheme scheme = core::BinningScheme::kRandomEqual;
  /// Probability that a truly non-empty bin reads as silence (the HACK
  /// false-negative mechanism, abstracted), injected by a FaultyChannel
  /// running an i.i.d. plan on `seed`. 0 = exact channel.
  double loss_prob = 0.0;
  std::uint64_t seed = 1;

  bool lossy() const { return loss_prob > 0.0; }
  bool ground_truth() const { return x >= t; }
  std::string describe() const;

  core::EngineOptions engine_options() const {
    core::EngineOptions opts;
    opts.ordering = ordering;
    opts.scheme = scheme;
    return opts;
  }

  /// What the ≥2-activity inference is allowed to be on this scenario: the
  /// engine's soundness gate auto-disables it under loss, and the
  /// CheckedChannel must mirror that or it would demand an unsound check.
  bool effective_counts_two() const {
    return engine_options().two_plus_activity_counts_two && !lossy();
  }
};

/// Draws a randomized scenario: n ∈ [1, 96], x ∈ [0, n], t ∈ [0, n+2]
/// (deliberately past the population so the trivially-false edge is hit),
/// both collision models, both orderings/schemes, and — when `allow_lossy`
/// — a false-negative rate up to 0.3.
Scenario random_scenario(RngStream& rng, bool allow_lossy);

}  // namespace tcast::conformance
