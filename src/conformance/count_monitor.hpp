// Statistical (1±ε)-acceptance monitor for the counting portfolio.
//
// An approximate estimator's contract — P(|x̂ − x| ≤ ε·x) ≥ 1 − δ — cannot
// be judged from a single run (any one estimate may legitimately miss), so
// the conformance layer audits it in distribution: fixed-seed batteries of
// independent instances per (n, x) grid point, with the empirical
// within-band fraction held against a Chernoff-style floor.
//
// Tolerance derivation (also the satellite-2 comment contract): over T
// i.i.d. trials the within-band count is Binomial(T, p) with p ≥ 1 − δ if
// the claim holds, so the observed fraction deviates from p by more than
// z·sqrt(δ(1−δ)/T) with probability ≤ exp(−z²/2) (normal tail; the exact
// Chernoff bound exp(−2Tγ²) gives the same z·sqrt(·/T) shape). At z = 3
// a *correct* estimator fails a grid cell with probability ≲ 1.3e-3, while
// a miscalibrated one (true p well below 1 − δ) still trips it.
//
// The claim under audit is the one every approximate estimate carries:
// (ε, δ) = (core::kCountEpsilon, core::kCountDelta).
#pragma once

#include "core/counting.hpp"

namespace tcast::conformance {

struct CountAccuracyReport {
  std::size_t trials = 0;
  std::size_t within = 0;  ///< runs with |x̂ − x| ≤ ε·x (x̂ = 0 when x = 0)
  double mean_estimate = 0.0;
  double mean_abs_rel_err = 0.0;  ///< |x̂ − x| / max(x, 1), averaged
  double mean_queries = 0.0;

  double within_fraction() const {
    return trials == 0 ? 1.0
                       : static_cast<double>(within) /
                             static_cast<double>(trials);
  }
};

/// Runs `spec` on `trials` independent n-node instances with exactly x
/// positives (exact 1+ channel; all randomness derives from experiment_id,
/// so the battery is reproducible bit-for-bit) and measures the empirical
/// accuracy of the claimed band, ±core::kCountEpsilon.
CountAccuracyReport measure_count_accuracy(
    const core::CountAlgorithmSpec& spec, std::size_t n, std::size_t x,
    std::size_t trials, std::uint64_t experiment_id);

/// The empirical within-band fraction a (1 − δ) claim must meet over
/// `trials` fixed-seed runs: 1 − δ − z·sqrt(δ(1−δ)/trials), floored at 0.
double acceptance_floor(double delta, std::size_t trials, double z = 3.0);

}  // namespace tcast::conformance
