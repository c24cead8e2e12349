// Registration entry points for the tcast_bench suite, one per layer.
// Called from tcast_bench_main.cpp (explicit calls, no static-init-order
// games); each registers its layer's named benchmarks with the registry.
#pragma once

#include "perf/bench_harness.hpp"

namespace tcast::bench {

void register_common_benches(perf::BenchRegistry& registry);
void register_sim_benches(perf::BenchRegistry& registry);
void register_group_benches(perf::BenchRegistry& registry);
void register_core_benches(perf::BenchRegistry& registry);
void register_counting_benches(perf::BenchRegistry& registry);

}  // namespace tcast::bench
