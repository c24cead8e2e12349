#include "analysis/chernoff.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/estimators.hpp"
#include "common/check.hpp"

namespace tcast::analysis {

double optimal_sampling_bin(double t_l, double t_r) {
  TCAST_CHECK(t_r > t_l);
  TCAST_CHECK(t_l >= 0.0);
  if (t_l <= 0.0) {
    // limit t_l → 0: maximise 1 − q^{t_r}; any b works for separating from
    // x = 0 (q_low = 0); pick the bin that makes q_high comfortably large.
    return std::max(1.5, t_r / std::log(4.0));
  }
  const double q = std::pow(t_l / t_r, 1.0 / (t_r - t_l));
  TCAST_CHECK(q > 0.0 && q < 1.0);
  return std::max(1.0 + 1e-9, 1.0 / (1.0 - q));
}

SamplingPlan make_sampling_plan(double t_l, double t_r) {
  SamplingPlan plan;
  plan.b = optimal_sampling_bin(t_l, t_r);
  plan.q_low = nonempty_probability(plan.b, std::max(0.0, t_l));
  plan.q_high = nonempty_probability(plan.b, t_r);
  return plan;
}

std::size_t paper_repeats(double delta, double epsilon) {
  TCAST_CHECK(delta > 0.0 && delta < 1.0);
  TCAST_CHECK(epsilon > 0.0);
  const double r =
      2.0 * std::log(1.0 / delta) / (epsilon * std::log(2.0 * std::exp(1.0)));
  return static_cast<std::size_t>(std::ceil(std::max(1.0, r)));
}

std::size_t hoeffding_repeats(double delta, double rate_gap) {
  TCAST_CHECK(delta > 0.0 && delta < 1.0);
  TCAST_CHECK(rate_gap > 0.0 && rate_gap <= 1.0);
  // Each mode's count must stay on its side of the midpoint, i.e. deviate
  // by less than Δq/2 per trial; two-sided Hoeffding per mode.
  const double half = rate_gap / 2.0;
  const double r = std::log(2.0 / delta) / (2.0 * half * half);
  return static_cast<std::size_t>(std::ceil(std::max(1.0, r)));
}

}  // namespace tcast::analysis
