// The counting-algorithm portfolio: estimators of the positive count x
// itself, riding the same QueryChannel primitives as the threshold
// algorithms, plus the threshold-via-count adapter that makes every
// estimator queryable as a registry threshold algorithm.
//
// The paper's threshold decision is a special case of counting, and two
// companion papers give directly implementable one-hop algorithms on the
// collision primitives this repo already simulates:
//
//  * Newport–Zheng, "Approximate Neighbor Counting in Radio Networks":
//    a (1±ε)-approximation from geometric-probability probes. The no-CD
//    variant needs only the 1+ outcome — silence vs activity — which is
//    exactly this repo's backcast primitive. `nz-geom` implements it as a
//    rough doubling scan followed by a refinement at the
//    maximum-information inclusion probability, sized for the one claim
//    below (kCountEpsilon, kCountDelta).
//
//  * Casteigts–Métivier–Robson–Zemmari, "Counting in One-Hop Beeping
//    Networks": exact counting when the only signal is a beep. The 1+
//    outcome *is* a beep, so the adaptive interval-splitting exact counter
//    (core/aggregate) is that algorithm on this channel; `beep-exact`
//    registers it.
//
// Soundness contract (mirrors the PR 2 loss gate): an estimator may only
// set CountOutcome::exact — or claim confidence 1 — on a channel that does
// NOT declare lossy(); under loss a silent probe proves nothing, so every
// exactness claim there is a conformance violation
// (CheckedChannel::check_count_outcome refuses it). The threshold-via-count
// adapter never trusts an approximate estimate for the verdict: the answer
// always comes from an exact engine session (2tBins near the boundary,
// ABNS seeded with the estimate far from it), so adapter verdicts are
// deterministically correct on clean channels and stay one-sided under
// loss — which is what lets the adapters ride the existing differential,
// metamorphic and chaos harnesses unchanged.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/round_engine.hpp"

namespace tcast::core {

/// The approximate estimator's claim, P(|estimate − x| ≤ ε·x) ≥ 1 − δ for
/// x ≥ 1: `nz-geom` sizes its refinement from it, tags every estimate with
/// it, and the statistical monitor (conformance/count_monitor) audits it.
inline constexpr double kCountEpsilon = 0.35;
inline constexpr double kCountDelta = 0.1;

struct CountOptions {
  /// Engine options for the exact sessions the threshold-via-count adapter
  /// runs (estimators themselves never announce bins).
  EngineOptions engine;
};

struct CountOutcome {
  double estimate = 0.0;
  /// Claimed P(estimate within the (1±epsilon) band); 1.0 only when exact.
  double confidence = 0.0;
  /// Claimed multiplicative band; 0 when exact.
  double epsilon = 0.0;
  /// The count is proven, not estimated (whole-set silence proved x = 0, or
  /// the exact splitting counter ran). Never set on a lossy channel.
  bool exact = false;
  QueryCount queries = 0;
  std::size_t rounds = 0;  ///< estimation levels / splitting depth entered
  /// Estimation was cancelled (CountOptions::engine.cancel tripped) before
  /// the estimator finished; estimate/confidence are meaningless.
  bool cancelled = false;
  /// Identities decoded during estimation (2+ captures) — real positives
  /// the adapter credits against the threshold and excludes from its
  /// verification session, exactly like the prob-abns hint. May contain
  /// duplicates (the same node can be captured in two sampled probes);
  /// consumers dedupe.
  std::vector<NodeId> confirmed;
};

struct CountAlgorithmSpec {
  std::string name;
  std::string description;
  /// Produces exact counts on lossless channels (epsilon-free).
  bool exact = false;
  std::function<CountOutcome(group::QueryChannel&, std::span<const NodeId>,
                             RngStream&, const CountOptions&)>
      run;
};

/// All registered counting estimators, in presentation order.
const std::vector<CountAlgorithmSpec>& counting_registry();

/// Lookup by name; nullptr when unknown.
const CountAlgorithmSpec* find_counting_algorithm(std::string_view name);

/// Newport–Zheng-style geometric-phase approximate counting on the 1+
/// outcome. Rough doubling scan (inclusion q = 2^-i until probes fall
/// silent), then refinement at q* ≈ ln2/x̂ — the operating point where
/// P(silence) ≈ 1/2 carries maximum information — with the repeat count
/// sized from (kCountEpsilon, kCountDelta). x = 0 is proven exactly in one
/// query on lossless channels.
CountOutcome run_newport_zheng_count(group::QueryChannel& channel,
                                     std::span<const NodeId> participants,
                                     RngStream& rng,
                                     const CountOptions& opts = {});

/// Casteigts-style exact count with beeps: the adaptive interval-splitting
/// counter of core/aggregate on the 1+ (beep) outcome; 2+ captures prune
/// subtrees. Exact on lossless channels; under loss the count is a lower
/// bound (silence may lie) and `exact` is not claimed.
CountOutcome run_beep_exact_count(group::QueryChannel& channel,
                                  std::span<const NodeId> participants,
                                  RngStream& rng,
                                  const CountOptions& opts = {});

/// The threshold-via-count adapter: answers "x ≥ t?" by running the named
/// estimator, then — unless the count is proven exact on a lossless
/// channel — an exact engine session whose shape the estimate picks:
/// 2tBins when t lands inside the estimate's (widened) uncertainty band,
/// ABNS seeded with the estimate when x̂ is far below t. Captured
/// identities from the estimation phase are credited and excluded, like
/// the prob-abns hint. Deterministically correct on lossless channels;
/// one-sided (no false "yes") under loss.
ThresholdOutcome run_threshold_via_count(group::QueryChannel& channel,
                                         std::span<const NodeId> participants,
                                         std::size_t t, RngStream& rng,
                                         std::string_view estimator,
                                         const EngineOptions& opts = {});

/// Worst-case query ceilings for the conformance bound monitor.
/// `nz-geom`'s exact ceiling, reached when every probe is active: the
/// anchor, every scan level's probes and the whole refinement.
double sampling_estimator_query_bound(std::size_t n);
/// Ceiling of the beep-exact splitting counter: every query discards,
/// counts, captures, or splits; generous closed form 2n·(log2(n)+2) + 8
/// (validated against exhaustive worst cases in tests/core/counting_test).
double beep_exact_query_bound(std::size_t n);

}  // namespace tcast::core
