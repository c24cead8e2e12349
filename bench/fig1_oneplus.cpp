// Figure 1 — "Performance of tcast in 1+ scenario".
//
// Mean number of queries vs x (positive nodes) for the 2tBins and
// Exponential Increase algorithms against the CSMA and sequential-ordering
// baselines. N = 128, t = 16, 1000 runs per point (paper Sec. IV-C).
//
// Paper shape to reproduce: tcast curves peak at x ≈ t and are cheap at
// both extremes; CSMA grows ∝ x; sequential starts near n − x and only
// becomes competitive for x ≫ t.
#include "bench/figure_common.hpp"
#include "core/baselines.hpp"

namespace tcast::bench {
namespace {

int run(int argc, char** argv) {
  const auto opts = parse_options(argc, argv);
  constexpr std::size_t kN = 128, kT = 16;

  SeriesTable table("x");
  const auto xs = x_sweep(kN, kT);
  std::uint64_t series_id = 0;
  for (const char* algo : {"2tbins", "expinc"}) {
    ++series_id;
    // One batched sweep per series: the whole x-grid × trials in one call.
    const auto means = series_means_over_x(
        opts, algo, group::CollisionModel::kOnePlus, kN, xs, kT, 1,
        series_id);
    for (std::size_t i = 0; i < xs.size(); ++i)
      table.set(static_cast<double>(xs[i]), algo, means[i]);
  }
  for (const std::size_t x : x_sweep(kN, kT)) {
    MonteCarloConfig mc{.seed = opts.seed,
                        .experiment_id = point_id(1, 10, x),
                        .trials = opts.trials};
    table.set(static_cast<double>(x), "csma",
              run_trials(mc, [x](RngStream& rng) {
                return static_cast<double>(
                    core::run_csma_baseline(kN, x, kT, rng).slots);
              }).mean());
    mc.experiment_id = point_id(1, 11, x);
    table.set(static_cast<double>(x), "sequential",
              run_trials(mc, [x](RngStream& rng) {
                return static_cast<double>(
                    core::run_sequential_baseline(kN, x, kT, rng).slots);
              }).mean());
  }

  emit(opts, "Fig 1: tcast vs baselines, 1+ model (N=128, t=16)", table);
  return 0;
}

}  // namespace
}  // namespace tcast::bench

int main(int argc, char** argv) { return tcast::bench::run(argc, argv); }
