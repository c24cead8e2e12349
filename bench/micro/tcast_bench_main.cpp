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
// --warmup 0 runs no warm-up. A flag with a missing value, or a --reps or
// --warmup that is not a whole number (--reps 0 included), prints
// "tcast_bench: bad value for <flag>" and exits 2.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/micro/micro_benchmarks.hpp"
#include "common/parse.hpp"
#include "perf/bench_harness.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--filter SUBSTR] [--json PATH] "
               "[--reps N] [--warmup N] [--list]\n",
               argv0);
  return 2;
}

int bad_value(const std::string& flag) {
  std::fprintf(stderr, "tcast_bench: bad value for %s\n", flag.c_str());
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
    const char* v = nullptr;
    const auto next = [&] {
      v = i + 1 < argc ? argv[++i] : nullptr;
      return v != nullptr;
    };
    std::size_t n = 0;
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--filter") {
      if (!next()) return bad_value(arg);
      opts.filter = v;
    } else if (arg == "--json") {
      if (!next()) return bad_value(arg);
      json_path = v;
    } else if (arg == "--reps") {
      if (!next() || !parse_int(std::string_view(v), n) || n == 0)
        return bad_value(arg);
      opts.reps = n;
    } else if (arg == "--warmup") {
      if (!next() || !parse_int(std::string_view(v), n)) return bad_value(arg);
      opts.warmup = n;
    } else {
      return usage(argv[0]);
    }
  }

  auto& registry = perf::BenchRegistry::global();
  bench::register_common_benches(registry);
  bench::register_sim_benches(registry);
  bench::register_group_benches(registry);
  bench::register_core_benches(registry);
  bench::register_counting_benches(registry);

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
