#include "perf/bench_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace tcast::perf {

double wall_now() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double cpu_now() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double median_of(std::vector<double> xs) {
  TCAST_CHECK(!xs.empty());
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double mad_of(const std::vector<double>& xs) {
  TCAST_CHECK(!xs.empty());
  const double med = median_of(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (const double x : xs) dev.push_back(std::abs(x - med));
  return median_of(std::move(dev));
}

Summary summarize(const std::vector<Sample>& samples) {
  TCAST_CHECK(!samples.empty());
  std::vector<double> wall, cpu;
  wall.reserve(samples.size());
  cpu.reserve(samples.size());
  for (const Sample& s : samples) {
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
  }
  Summary out;
  out.reps = samples.size();
  out.wall_min_s = *std::min_element(wall.begin(), wall.end());
  out.wall_median_s = median_of(wall);
  out.wall_mad_s = mad_of(wall);
  out.cpu_min_s = *std::min_element(cpu.begin(), cpu.end());
  out.cpu_median_s = median_of(cpu);
  out.cpu_mad_s = mad_of(cpu);
  return out;
}

double BenchResult::items_per_s() const {
  return timing.wall_median_s > 0.0
             ? static_cast<double>(items) / timing.wall_median_s
             : 0.0;
}

double BenchResult::items_per_s_best() const {
  return timing.wall_min_s > 0.0
             ? static_cast<double>(items) / timing.wall_min_s
             : 0.0;
}

JsonValue BenchResult::to_json() const {
  JsonValue::Object params_obj;
  for (const auto& [k, v] : params) params_obj.emplace(k, v);
  JsonValue::Object stats{
      {"wall_min_s", timing.wall_min_s},
      {"wall_median_s", timing.wall_median_s},
      {"wall_mad_s", timing.wall_mad_s},
      {"cpu_min_s", timing.cpu_min_s},
      {"cpu_median_s", timing.cpu_median_s},
      {"cpu_mad_s", timing.cpu_mad_s},
  };
  JsonValue::Object obj{
      {"name", name},
      {"unit", unit},
      {"params", std::move(params_obj)},
      {"items", static_cast<double>(items)},
      {"reps", timing.reps},
      {"stats", std::move(stats)},
      {"items_per_s", items_per_s()},
      {"items_per_s_best", items_per_s_best()},
  };
  if (!percentiles.empty()) {
    JsonValue::Object pct;
    for (const auto& [k, v] : percentiles) pct.emplace(k, v);
    obj.emplace("percentiles", std::move(pct));
  }
  return JsonValue(std::move(obj));
}

void BenchRegistry::add(Benchmark b) {
  TCAST_CHECK_MSG(!b.name.empty(), "benchmark needs a name");
  TCAST_CHECK(b.body != nullptr);
  for (const Benchmark& existing : benches_)
    TCAST_CHECK_MSG(existing.name != b.name, "duplicate benchmark name");
  benches_.push_back(std::move(b));
}

std::vector<BenchResult> BenchRegistry::run(const RunOptions& opts,
                                            std::ostream* progress) const {
  std::vector<BenchResult> out;
  for (const Benchmark& b : benches_) {
    if (!opts.filter.empty() &&
        b.name.find(opts.filter) == std::string::npos)
      continue;
    if (progress) *progress << b.name << " ..." << std::flush;
    std::uint64_t items = 0;
    for (std::size_t w = 0; w < opts.effective_warmup(); ++w)
      items = b.body(opts.quick);
    std::vector<Sample> samples;
    samples.reserve(opts.effective_reps());
    for (std::size_t r = 0; r < opts.effective_reps(); ++r) {
      const double w0 = wall_now();
      const double c0 = cpu_now();
      items = b.body(opts.quick);
      samples.push_back(Sample{wall_now() - w0, cpu_now() - c0});
    }
    BenchResult res;
    res.name = b.name;
    res.unit = b.unit;
    res.params = b.params;
    res.items = items;
    res.timing = summarize(samples);
    if (progress) {
      char line[160];
      std::snprintf(line, sizeof line,
                    " %.3f ms median (MAD %.3f), %.3g %ss/s\n",
                    res.timing.wall_median_s * 1e3,
                    res.timing.wall_mad_s * 1e3, res.items_per_s(),
                    res.unit.c_str());
      *progress << line << std::flush;
    }
    out.push_back(std::move(res));
  }
  return out;
}

BenchRegistry& BenchRegistry::global() {
  static BenchRegistry registry;
  return registry;
}

HostInfo host_info() {
  HostInfo h;
#if defined(__VERSION__)
  h.compiler = __VERSION__;
#else
  h.compiler = "unknown";
#endif
#if defined(TCAST_BUILD_TYPE)
  h.build_type = TCAST_BUILD_TYPE;
#else
  h.build_type = "unknown";
#endif
  h.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    h.affinity_cpus = static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return h;
}

JsonValue Report::to_json() const {
  JsonValue::Array arr;
  arr.reserve(results.size());
  for (const BenchResult& r : results) arr.push_back(r.to_json());
  return JsonValue(JsonValue::Object{
      {"schema", schema},
      {"quick", quick},
      {"host",
       JsonValue::Object{
           {"compiler", host.compiler},
           {"build_type", host.build_type},
           {"hardware_threads", static_cast<double>(host.hardware_threads)},
           {"affinity_cpus", static_cast<double>(host.affinity_cpus)},
       }},
      {"benchmarks", std::move(arr)},
  });
}

}  // namespace tcast::perf
