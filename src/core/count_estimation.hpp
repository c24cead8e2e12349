// Extensions built on the same sampled-bin primitive as Sec. V-D / VI:
//
//  * estimate_positive_count — an adaptive estimator of x itself (not just
//    x ≥ t). The paper uses one sampled query to coarsely bucket x for the
//    ABNS seed; iterating the idea at geometric inclusion probabilities and
//    inverting P(non-empty) = 1 − (1 − q)^x yields a multiplicative point
//    estimate in O(log n + r) queries — the data-streams "sampling at the
//    right scale" trick the paper cites ([18]).
//
//  * run_interval_query — answers which side of an interval [t_lo, t_hi)
//    the positive count falls on, by composing two exact threshold queries.
//    This is the exact-query analogue of the Sec.-VI bimodal test (and what
//    an intrusion-detection application actually wants: "false alarm, real
//    event, or in between — investigate").
#pragma once

#include <string_view>
#include <vector>

#include "core/round_engine.hpp"

namespace tcast::core {

struct CountEstimate {
  double estimate = 0.0;   ///< point estimate of x
  bool exact = false;      ///< true when x = 0 was proven (whole-set silent)
  QueryCount queries = 0;
  double inclusion_used = 1.0;  ///< q of the refining level
  std::size_t nonempty = 0;     ///< non-empty outcomes at that level
  std::size_t repeats = 0;      ///< refining repeats actually made
  /// Identities decoded by 2+ captures during probing — real positives a
  /// caller may credit. May contain duplicates; consumers dedupe.
  std::vector<NodeId> confirmed;
};

/// Estimates the number of positive nodes among `participants`: scans
/// geometric inclusion levels, then spends `refine_repeats` queries at the
/// accepted one. Multiplicative accuracy improves with refine_repeats
/// (≈ ±30% at 30); x = 0 is detected exactly in one query.
CountEstimate estimate_positive_count(group::QueryChannel& channel,
                                      std::span<const NodeId> participants,
                                      RngStream& rng,
                                      std::size_t refine_repeats = 30);

enum class IntervalVerdict { kBelow, kInside, kAbove };

const char* to_string(IntervalVerdict v);

struct IntervalOutcome {
  IntervalVerdict verdict = IntervalVerdict::kBelow;
  QueryCount queries = 0;
};

/// Decides whether x < t_lo, t_lo ≤ x < t_hi, or x ≥ t_hi, using two exact
/// threshold sessions of the named registry algorithm (default 2tBins).
/// Requires t_lo < t_hi.
IntervalOutcome run_interval_query(group::QueryChannel& channel,
                                   std::span<const NodeId> participants,
                                   std::size_t t_lo, std::size_t t_hi,
                                   RngStream& rng,
                                   std::string_view algorithm = "2tbins",
                                   const EngineOptions& opts = {});

}  // namespace tcast::core
