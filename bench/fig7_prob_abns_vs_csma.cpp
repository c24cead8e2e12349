// Figure 7 — "Probabilistic ABNS vs. CSMA" (N = 32, t = 8, the paper's
// stated parameters).
//
// Paper shape: CSMA is competitive (slightly better) for x < t; for x > t
// the probabilistic ABNS wins by a growing margin because CSMA must carry
// every reply through contention while tcast needs ≈ t queries.
#include "bench/figure_common.hpp"
#include "core/baselines.hpp"

namespace tcast::bench {
namespace {

int run(int argc, char** argv) {
  const auto opts = parse_options(argc, argv);
  constexpr std::size_t kN = 32, kT = 8;

  SeriesTable table("x");
  for (std::size_t x = 0; x <= kN; ++x) {
    table.set(static_cast<double>(x), "prob-abns",
              mean_queries(opts, "prob-abns", group::CollisionModel::kOnePlus,
                           kN, x, kT, point_id(7, 1, x)));
    MonteCarloConfig mc{.seed = opts.seed,
                        .experiment_id = point_id(7, 2, x),
                        .trials = opts.trials};
    table.set(static_cast<double>(x), "csma",
              run_trials(mc, [x](RngStream& rng) {
                return static_cast<double>(
                    core::run_csma_baseline(kN, x, kT, rng).slots);
              }).mean());
  }

  emit(opts, "Fig 7: probabilistic ABNS vs CSMA (N=32, t=8)", table);
  return 0;
}

}  // namespace
}  // namespace tcast::bench

int main(int argc, char** argv) { return tcast::bench::run(argc, argv); }
