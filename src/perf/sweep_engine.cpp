#include "perf/sweep_engine.hpp"

#include <atomic>
#include <memory>

#include "common/check.hpp"
#include "common/monte_carlo.hpp"
#include "core/registry.hpp"

namespace tcast::perf {

namespace {

/// Per-thread channel workspace, recycled across every trial this thread
/// executes within one sweep. Keyed by a sweep generation counter so a
/// later sweep with a different spec rebuilds instead of reusing stale
/// state; within one sweep every trial uses the same (n, model, capture)
/// configuration, so reuse is always valid.
struct Workspace {
  std::uint64_t generation = 0;
  std::unique_ptr<group::ExactChannel> channel;
  std::unique_ptr<core::RoundEngine> engine;
};

thread_local Workspace t_workspace;

std::atomic<std::uint64_t> g_sweep_generation{0};

}  // namespace

QuerySweepResult run_query_sweep(const QuerySweepSpec& spec) {
  const auto* algo = core::find_algorithm(spec.algorithm);
  TCAST_CHECK_MSG(algo != nullptr, "run_query_sweep: unknown algorithm name");

  const std::size_t points = spec.points.size();
  const std::size_t trials = spec.trials;
  const std::uint64_t generation =
      g_sweep_generation.fetch_add(1, std::memory_order_relaxed) + 1;

  std::vector<double> values(points * trials, 0.0);
  double* const data = values.data();
  const SweepPoint* const grid = spec.points.data();

  parallel_for(
      points * trials,
      [&](std::size_t flat) {
        const SweepPoint& point = grid[flat / trials];
        const std::size_t trial = flat % trials;
        // The exact stream the unbatched per-point run_trials() loop used.
        RngStream rng(spec.seed,
                      trial_stream_id(point.experiment_id, trial));

        Workspace& ws = t_workspace;
        if (ws.generation != generation || !ws.channel) {
          ws.channel = std::make_unique<group::ExactChannel>(
              std::vector<bool>(spec.n, false), rng, spec.channel);
          ws.engine.reset();
          ws.generation = generation;
        }
        group::ExactChannel& channel = *ws.channel;
        channel.rebind_rng(rng);
        // Draw-identical to with_random_positives(n, x, rng, cfg).
        channel.assign_random_positives(point.x, rng);
        channel.reset_query_counter();

        core::ThresholdOutcome outcome;
        if (algo->run_with_engine) {
          // Recycle the engine's round workspaces across trials; run()
          // fully re-initialises them, so this is draw- and
          // outcome-identical to a fresh engine per trial.
          if (!ws.engine) {
            ws.engine = std::make_unique<core::RoundEngine>(channel, rng,
                                                            spec.engine);
          }
          ws.engine->rebind(channel, rng, spec.engine);
          outcome =
              algo->run_with_engine(*ws.engine, channel.all_nodes(), point.t);
        } else {
          outcome =
              algo->run(channel, channel.all_nodes(), point.t, rng,
                        spec.engine);
        }
        data[flat] = static_cast<double>(outcome.queries);
      },
      spec.pool);

  QuerySweepResult result;
  result.queries.resize(points);
  for (std::size_t p = 0; p < points; ++p)
    for (std::size_t i = 0; i < trials; ++i)
      result.queries[p].add(values[p * trials + i]);
  return result;
}

}  // namespace tcast::perf
