// tcast_bench — the self-timing microbenchmark suite.
//
// Usage:
//   tcast_bench [--quick] [--filter SUBSTR] [--json PATH] [--reps N]
//               [--warmup N] [--list]
//
// Runs every registered benchmark (optionally filtered by substring),
// prints a progress line per benchmark, and writes the machine-readable
// report (schema tcast-bench-v1) to PATH (default BENCH_tcast.json in the
// current directory). --quick shrinks workloads ~10x for CI runs;
// tools/perf_gate.py compares the reports of two builds on one machine.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/micro/micro_benchmarks.hpp"
#include "perf/bench_harness.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--filter SUBSTR] [--json PATH] "
               "[--reps N] [--warmup N] [--list]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast;

  perf::RunOptions opts;
  std::string json_path = "BENCH_tcast.json";
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--filter") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.filter = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--reps") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.reps = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--warmup") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.warmup = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }

  auto& registry = perf::BenchRegistry::global();
  bench::register_common_benches(registry);
  bench::register_sim_benches(registry);
  bench::register_parallel_benches(registry);
  bench::register_group_benches(registry);
  bench::register_core_benches(registry);
  bench::register_counting_benches(registry);
  bench::register_conformance_benches(registry);
  bench::register_faults_benches(registry);

  if (list_only) {
    for (const auto& b : registry.benchmarks())
      std::printf("%s  [%s]\n", b.name.c_str(), b.unit.c_str());
    return 0;
  }

  perf::Report report;
  report.host = perf::host_info();
  report.quick = opts.quick;
  report.results = registry.run(opts, &std::cout);

  if (report.results.empty()) {
    std::fprintf(stderr, "no benchmark matches filter '%s'\n",
                 opts.filter.c_str());
    return 1;
  }

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << report.to_json_string();
  std::printf("%zu benchmark(s) -> %s%s\n", report.results.size(),
              json_path.c_str(), opts.quick ? " (quick)" : "");
  return 0;
}
