// Self-timing benchmark harness for the tcast perf trajectory.
//
// A Benchmark is a named closure that executes one repetition of a workload
// and reports how many items (trials, events, polls, runs) it processed.
// The harness runs warmup repetitions, then timed repetitions measuring
// wall time (steady_clock) and process CPU time, and summarises them with
// robust statistics: min, median, and MAD (median absolute deviation) —
// the right summary for timing samples, whose noise is one-sided.
//
// Reports serialise to JSON (schema `tcast-bench-v1`: name, params, unit,
// items, reps, wall/cpu stats, throughput, host info). tools/perf_gate.py
// reads them from two builds on one machine and gates regressions; see
// docs/PERFORMANCE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "perf/json.hpp"

namespace tcast::perf {

/// One timed repetition of a benchmark body.
struct Sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Seconds on the monotonic wall clock.
double wall_now();
/// Seconds of CPU time consumed by the whole process (all threads).
double cpu_now();

/// Median of a sample set (average of the middle pair for even sizes).
/// Precondition: non-empty.
double median_of(std::vector<double> xs);

/// Median absolute deviation: median(|x - median(x)|). Robust spread
/// measure — one slow outlier repetition barely moves it.
double mad_of(const std::vector<double>& xs);

/// Robust summary of the wall/CPU samples of one benchmark.
struct Summary {
  std::size_t reps = 0;
  double wall_min_s = 0.0;
  double wall_median_s = 0.0;
  double wall_mad_s = 0.0;
  double cpu_min_s = 0.0;
  double cpu_median_s = 0.0;
  double cpu_mad_s = 0.0;
};
Summary summarize(const std::vector<Sample>& samples);

/// Result of one benchmark: identity, workload size, and timing summary.
struct BenchResult {
  std::string name;
  std::string unit;  ///< what one item is: "trial", "event", "poll", "run"
  std::map<std::string, double> params;  ///< workload parameters (n, trials…)
  std::uint64_t items = 0;               ///< items processed per repetition
  Summary timing;
  /// Optional latency-distribution entries ("p50_us", "p99_us", "p999_us",
  /// ...) for the service load rigs, whose tail latency is gated next to
  /// throughput (tools/perf_gate.py: larger is a regression). Empty for
  /// throughput-only benchmarks.
  std::map<std::string, double> percentiles;

  /// Throughput at the median repetition (the headline number).
  double items_per_s() const;
  /// Throughput at the fastest repetition (the machine's ceiling).
  double items_per_s_best() const;

  JsonValue to_json() const;
};

struct RunOptions {
  bool quick = false;      ///< CI smoke scale: benchmarks shrink workloads
  std::size_t reps = 0;    ///< 0 = default (11 full, 5 quick)
  /// Unset = default (2 full, 1 quick); 0 runs no warm-up.
  std::optional<std::size_t> warmup;
  std::string filter;      ///< substring match on benchmark names; "" = all

  std::size_t effective_reps() const { return reps ? reps : (quick ? 5 : 11); }
  std::size_t effective_warmup() const {
    return warmup.value_or(quick ? 1u : 2u);
  }
};

/// A registered benchmark. `body(quick)` runs ONE repetition and returns
/// the number of items it processed (used for throughput); workloads should
/// shrink by ~an order of magnitude when `quick` is true.
struct Benchmark {
  std::string name;
  std::string unit;
  std::map<std::string, double> params;
  std::function<std::uint64_t(bool quick)> body;
};

class BenchRegistry {
 public:
  void add(Benchmark b);
  const std::vector<Benchmark>& benchmarks() const { return benches_; }

  /// Runs every benchmark whose name contains opts.filter; emits one
  /// progress line per benchmark to `progress` when non-null.
  std::vector<BenchResult> run(const RunOptions& opts,
                               std::ostream* progress = nullptr) const;

  static BenchRegistry& global();

 private:
  std::vector<Benchmark> benches_;
};

struct HostInfo {
  std::string compiler;
  std::string build_type;
  unsigned hardware_threads = 0;
  /// CPUs actually schedulable for this process (sched_getaffinity) — the
  /// honest parallel-speedup ceiling on pinned/containerized CI runners,
  /// where it is often smaller than hardware_threads. 0 = unknown.
  unsigned affinity_cpus = 0;
};
HostInfo host_info();

/// A full harness run: everything a report file holds.
struct Report {
  std::string schema = "tcast-bench-v1";
  HostInfo host;
  bool quick = false;
  std::vector<BenchResult> results;

  JsonValue to_json() const;
  std::string to_json_string() const { return to_json().dump(2) + "\n"; }
};

}  // namespace tcast::perf
