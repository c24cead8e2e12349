// Common-tier microbenchmarks: the Monte-Carlo driver and the thread pool —
// the hot paths under every figure reproduction ("average of 1000 runs" per
// sweep point).
#include "bench/micro/micro_benchmarks.hpp"

#include <atomic>

#include "common/monte_carlo.hpp"
#include "common/parallel.hpp"

namespace tcast::bench {

namespace {

/// The workload one simulated trial stands in for: a handful of RNG draws,
/// small enough that driver overhead is visible.
double tiny_trial(RngStream& rng) {
  double acc = 0.0;
  acc += rng.uniform01();
  return acc;
}

std::size_t trial_count(bool quick) { return quick ? 20'000 : 200'000; }

}  // namespace

void register_common_benches(perf::BenchRegistry& registry) {
  registry.add(perf::Benchmark{
      "common/run_trials/fast",
      "trial",
      {{"rng_draws_per_trial", 1}},
      [](bool quick) -> std::uint64_t {
        MonteCarloConfig cfg;
        cfg.trials = trial_count(quick);
        const auto s = run_trials(cfg, tiny_trial);
        return s.count();
      }});

  registry.add(perf::Benchmark{
      "common/run_multi_trials/span_fast",
      "trial",
      {{"metrics", 3}},
      [](bool quick) -> std::uint64_t {
        MonteCarloConfig cfg;
        cfg.trials = trial_count(quick);
        const auto stats = run_multi_trials(
            cfg, 3, [](RngStream& rng, std::span<double> out) {
              out[0] = rng.uniform01();
              out[1] = rng.uniform01();
              out[2] = out[0] + out[1];
            });
        return stats[0].count();
      }});

  registry.add(perf::Benchmark{
      "common/parallel_for/batch",
      "index",
      {},
      [](bool quick) -> std::uint64_t {
        const std::size_t n = quick ? 200'000 : 2'000'000;
        std::atomic<std::uint64_t> sink{0};
        std::uint64_t local = 0;
        (void)local;
        parallel_for(n, [&sink](std::size_t i) {
          // Just enough work that the compiler cannot elide the body.
          if ((i & 0xFFFF) == 0) sink.fetch_add(1, std::memory_order_relaxed);
        });
        return n + sink.load();
      }});
}

}  // namespace tcast::bench
