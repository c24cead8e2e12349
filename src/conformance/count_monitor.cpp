#include "conformance/count_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "common/monte_carlo.hpp"
#include "group/exact_channel.hpp"

namespace tcast::conformance {

CountAccuracyReport measure_count_accuracy(
    const core::CountAlgorithmSpec& spec, std::size_t n, std::size_t x,
    std::size_t trials, std::uint64_t experiment_id) {
  MonteCarloConfig mc;
  mc.trials = trials;
  mc.experiment_id = experiment_id;
  const double band = core::kCountEpsilon *
                      std::max<double>(static_cast<double>(x), 1.0);
  const auto stats = run_multi_trials(
      mc, 4, [&](RngStream& rng, std::span<double> out) {
        auto ch = group::ExactChannel::with_random_positives(n, x, rng);
        const auto outcome = spec.run(ch, ch.all_nodes(), rng, {});
        const double err =
            std::abs(outcome.estimate - static_cast<double>(x));
        out[0] = outcome.estimate;
        out[1] = err / std::max<double>(static_cast<double>(x), 1.0);
        out[2] = err <= band ? 1.0 : 0.0;
        out[3] = static_cast<double>(outcome.queries);
      });
  CountAccuracyReport report;
  report.trials = trials;
  report.mean_estimate = stats[0].mean();
  report.mean_abs_rel_err = stats[1].mean();
  report.within = static_cast<std::size_t>(
      std::lround(stats[2].mean() * static_cast<double>(trials)));
  report.mean_queries = stats[3].mean();
  return report;
}

double acceptance_floor(double delta, std::size_t trials, double z) {
  const double del = std::clamp(delta, 0.0, 1.0);
  const double slack =
      z * std::sqrt(del * (1.0 - del) /
                    std::max<double>(1.0, static_cast<double>(trials)));
  return std::max(0.0, 1.0 - del - slack);
}

}  // namespace tcast::conformance
