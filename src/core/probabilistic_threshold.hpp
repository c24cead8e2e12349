// The probabilistic threshold test of Sec. VI.
//
// Assumes x follows a bimodal distribution (false alarm near μ1 vs true
// event near μ2). Repeats r single-bin sampled queries — each node enters
// the bin with probability 1/b — and declares the *high* mode when the
// non-empty count exceeds (m1 + m2)/2. O(1) queries, independent of n, x
// and t, at the price of a bounded error probability (Eq. 9/10).
#pragma once

#include <optional>

#include "analysis/chernoff.hpp"
#include "core/round_engine.hpp"

namespace tcast::core {

struct ProbabilisticThresholdOptions {
  double t_l = 0.0;         ///< low boundary (μ1 + 2σ1)
  double t_r = 0.0;         ///< high boundary (μ2 − 2σ2); must be > t_l
  std::size_t repeats = 1;  ///< r
};

struct ProbabilisticOutcome {
  bool high_mode = false;        ///< the decision: x ≥ t_r (vs x ≤ t_l)
  QueryCount queries = 0;        ///< == repeats
  std::size_t nonempty_seen = 0;
  analysis::SamplingPlan plan{};
};

ProbabilisticOutcome run_probabilistic_threshold(
    group::QueryChannel& channel, std::span<const NodeId> participants,
    const ProbabilisticThresholdOptions& opts, RngStream& rng);

}  // namespace tcast::core
