// Repeat-count analysis for the probabilistic threshold test (Sec. VI-A).
//
// One sampled-bin query is a Bernoulli trial with success (non-empty)
// probability q(x) = 1 − (1 − 1/b)^x. When x ≤ t_l the rate is at most
// q(t_l); when x ≥ t_r it is at least q(t_r). Repeating r times and
// thresholding the non-empty count in the gap separates the two modes.
#pragma once

#include <cstddef>

namespace tcast::analysis {

struct SamplingPlan {
  double b;        ///< sampling bin parameter (inclusion probability 1/b)
  double q_low;    ///< per-trial non-empty prob at x = t_l
  double q_high;   ///< per-trial non-empty prob at x = t_r
  double gap() const { return q_high - q_low; }

  /// Expected non-empty counts after r repeats (the paper's m1, m2).
  double m1(std::size_t r) const { return static_cast<double>(r) * q_low; }
  double m2(std::size_t r) const { return static_cast<double>(r) * q_high; }

  /// Decision cut: count > (m1 + m2)/2 ⇒ high mode (Sec. VI-B).
  double decision_cut(std::size_t r) const {
    return (m1(r) + m2(r)) / 2.0;
  }
};

/// The gap-maximising bin parameter: argmax_b (1−1/b)^{t_l} − (1−1/b)^{t_r},
/// solved in closed form: q* = (t_l / t_r)^{1/(t_r − t_l)}, b* = 1/(1−q*).
/// (The paper leaves b free; DESIGN.md decision #5.) Requires t_r > t_l ≥ 0;
/// for t_l = 0 the optimum is b* = 1/(1 − 0^{...}) → use the limit form.
double optimal_sampling_bin(double t_l, double t_r);

/// Builds the plan for boundaries (t_l, t_r) with the optimal b.
SamplingPlan make_sampling_plan(double t_l, double t_r);

/// Paper Eq. (10): r ≥ 2·log(1/δ) / (ε·log 2e) with ε the tolerated count
/// deviation. Kept verbatim for reproduction.
std::size_t paper_repeats(double delta, double epsilon);

/// Standard two-sided Hoeffding bound on the per-trial rate: to separate two
/// Bernoulli rates with gap Δq at overall failure probability ≤ δ,
/// r ≥ 2·ln(2/δ) / Δq². (The statistically-grounded companion; Fig. 10
/// reports both alongside the empirical requirement.)
std::size_t hoeffding_repeats(double delta, double rate_gap);

}  // namespace tcast::analysis
