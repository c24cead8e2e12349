// Faults-tier benchmarks: the chaos machinery's two hot loops. Trace
// replay is the shrinker's inner predicate — ddmin calls it hundreds of
// times per minimization, so replay throughput bounds how large a
// violating trace the nightly campaign can afford to shrink. The campaign
// step is one full session (build stack, run engine, record trace, check
// monitors), the unit the nightly job multiplies by thousands.
#include "bench/micro/micro_benchmarks.hpp"

#include "chaos/chaos_engine.hpp"

namespace tcast::bench {

void register_faults_benches(perf::BenchRegistry& registry) {
  registry.add(perf::Benchmark{
      "faults/faulty_channel/replay",
      "run",
      {},
      [](bool quick) -> std::uint64_t {
        chaos::ChaosScenario sc;
        sc.algorithm = "2tbins";
        sc.n = 48;
        sc.x = 20;
        sc.t = 16;
        sc.model = group::CollisionModel::kTwoPlus;
        sc.tier = chaos::Tier::kExact;
        sc.seed = 5;
        sc.plan = *faults::FaultPlan::parse(
            "ge=0.05:0.2:0:0.8,downgrade=0.2,crash=0.02,reboot=5,seed=21");
        const auto live = chaos::run_session(sc);
        TCAST_CHECK_MSG(!live.trace.events.empty(),
                        "replay benchmark trace is empty");
        const std::size_t replays = quick ? 50 : 500;
        std::uint64_t events = 0;
        for (std::size_t i = 0; i < replays; ++i) {
          const auto rep = chaos::replay_session(sc, live.trace);
          TCAST_CHECK_MSG(rep.trace == live.trace,
                          "replay diverged inside the benchmark");
          events += rep.trace.events.size();
        }
        return events;
      }});

  registry.add(perf::Benchmark{
      "faults/chaos/campaign_step",
      "run",
      {},
      [](bool quick) -> std::uint64_t {
        const std::size_t steps = quick ? 20 : 200;
        const auto grid = chaos::default_plan_grid(/*seed=*/7);
        std::uint64_t faults = 0;
        for (std::size_t i = 0; i < steps; ++i) {
          chaos::ChaosScenario sc;
          sc.algorithm = "2tbins";
          sc.n = 32;
          sc.x = 12;
          sc.t = 10;
          sc.tier = chaos::Tier::kExact;
          sc.seed = 100 + i;
          sc.plan = grid[i % grid.size()];
          const auto rep = chaos::run_session(sc);
          TCAST_CHECK_MSG(rep.ok(),
                          "guarded session violated inside the benchmark");
          faults += rep.trace.events.size();
        }
        return faults;
      }});
}

}  // namespace tcast::bench
