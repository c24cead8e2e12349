// Monte-Carlo trial driver.
//
// Every figure in the paper is "average of 1000 runs" at each sweep point;
// this driver owns that loop: per-trial independent RNG streams (bit-exact
// results regardless of thread count), parallel fan-out, and merged stats.
//
// The drivers are templates so the per-trial callable is inlined into the
// chunk loop — no std::function dispatch, no per-trial heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace tcast {

struct MonteCarloConfig {
  std::uint64_t seed = 0x7ca57ca57ca57ca5ULL;  ///< root seed
  std::uint64_t experiment_id = 0;  ///< namespaces streams between sweeps
  std::size_t trials = 1000;        ///< paper default: 1000 runs/point
  ThreadPool* pool = nullptr;       ///< nullptr = global pool
};

namespace detail {

/// Shared core: fans cfg.trials trials out across the pool, each writing its
/// `metrics` values straight into one flat buffer, then reduces in trial
/// order so the result is bit-identical for any worker count.
template <typename TrialInto>  // void(RngStream&, double* out)
std::vector<RunningStats> run_trials_into(const MonteCarloConfig& cfg,
                                          std::size_t metrics,
                                          TrialInto&& trial) {
  TCAST_CHECK(metrics > 0);
  std::vector<double> values(cfg.trials * metrics, 0.0);
  double* const data = values.data();
  parallel_for(
      cfg.trials,
      [&](std::size_t i) {
        RngStream rng(cfg.seed, trial_stream_id(cfg.experiment_id, i));
        trial(rng, data + i * metrics);
      },
      cfg.pool);
  std::vector<RunningStats> merged(metrics);
  for (std::size_t i = 0; i < cfg.trials; ++i)
    for (std::size_t m = 0; m < metrics; ++m)
      merged[m].add(values[i * metrics + m]);
  return merged;
}

}  // namespace detail

/// Runs cfg.trials independent trials of `trial(rng)` and returns merged
/// statistics of the returned metric.
template <typename Trial>
  requires std::is_invocable_r_v<double, Trial&, RngStream&>
RunningStats run_trials(const MonteCarloConfig& cfg, Trial&& trial) {
  auto merged = detail::run_trials_into(
      cfg, 1,
      [&trial](RngStream& rng, double* out) { out[0] = trial(rng); });
  return merged[0];
}

/// Boolean-outcome variant (accuracy experiments, Fig. 9/10).
template <typename Trial>
  requires std::is_invocable_r_v<bool, Trial&, RngStream&>
Proportion run_bool_trials(const MonteCarloConfig& cfg, Trial&& trial) {
  const RunningStats s = run_trials(
      cfg, [&trial](RngStream& rng) { return trial(rng) ? 1.0 : 0.0; });
  Proportion p;
  // Rebuild the proportion from the mean; counts are exact because the
  // metric is {0,1}-valued.
  const auto successes = static_cast<std::size_t>(s.sum() + 0.5);
  for (std::size_t i = 0; i < s.count(); ++i) p.add(i < successes);
  return p;
}

/// Multi-metric fast path: the trial fills a span of exactly `metrics`
/// doubles; the driver returns one RunningStats per metric, with zero
/// per-trial allocation. Used when a single simulated run yields several
/// figure series (e.g. queries and rounds).
template <typename Trial>
  requires std::is_invocable_v<Trial&, RngStream&, std::span<double>>
std::vector<RunningStats> run_multi_trials(const MonteCarloConfig& cfg,
                                           std::size_t metrics,
                                           Trial&& trial) {
  return detail::run_trials_into(
      cfg, metrics, [&trial, metrics](RngStream& rng, double* out) {
        trial(rng, std::span<double>(out, metrics));
      });
}

}  // namespace tcast
