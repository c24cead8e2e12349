#include "perf/bench_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

namespace {

bool read_number(const JsonValue& v, std::string_view key, double* out) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->is_number()) return false;
  *out = f->as_number();
  return true;
}

bool read_string(const JsonValue& v, std::string_view key, std::string* out) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !f->is_string()) return false;
  *out = f->as_string();
  return true;
}

}  // namespace

std::optional<BenchResult> BenchResult::from_json(const JsonValue& v) {
  BenchResult r;
  double items = 0.0, reps = 0.0;
  if (!read_string(v, "name", &r.name) || !read_string(v, "unit", &r.unit) ||
      !read_number(v, "items", &items) || !read_number(v, "reps", &reps))
    return std::nullopt;
  r.items = static_cast<std::uint64_t>(items);
  r.timing.reps = static_cast<std::size_t>(reps);
  const JsonValue* stats = v.find("stats");
  if (stats == nullptr || !stats->is_object()) return std::nullopt;
  if (!read_number(*stats, "wall_min_s", &r.timing.wall_min_s) ||
      !read_number(*stats, "wall_median_s", &r.timing.wall_median_s) ||
      !read_number(*stats, "wall_mad_s", &r.timing.wall_mad_s) ||
      !read_number(*stats, "cpu_min_s", &r.timing.cpu_min_s) ||
      !read_number(*stats, "cpu_median_s", &r.timing.cpu_median_s) ||
      !read_number(*stats, "cpu_mad_s", &r.timing.cpu_mad_s))
    return std::nullopt;
  if (const JsonValue* params = v.find("params");
      params != nullptr && params->is_object()) {
    for (const auto& [k, pv] : params->as_object())
      if (pv.is_number()) r.params.emplace(k, pv.as_number());
  }
  if (const JsonValue* pct = v.find("percentiles");
      pct != nullptr && pct->is_object()) {
    for (const auto& [k, pv] : pct->as_object())
      if (pv.is_number()) r.percentiles.emplace(k, pv.as_number());
  }
  return r;
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

std::string current_git_sha() {
  if (const char* env = std::getenv("TCAST_GIT_SHA");
      env != nullptr && env[0] != '\0')
    return env;
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t n = fread(buf, 1, sizeof buf - 1, p);
    const int status = pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
      sha.pop_back();
    if (status == 0 && sha.size() >= 7) return sha;
  }
#endif
  return "unknown";
}

JsonValue Report::to_json() const {
  JsonValue::Array arr;
  arr.reserve(results.size());
  for (const BenchResult& r : results) arr.push_back(r.to_json());
  return JsonValue(JsonValue::Object{
      {"schema", schema},
      {"git_sha", git_sha},
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

std::optional<Report> Report::from_json(const JsonValue& v) {
  Report rep;
  if (!read_string(v, "schema", &rep.schema) ||
      rep.schema != "tcast-bench-v1" ||
      !read_string(v, "git_sha", &rep.git_sha))
    return std::nullopt;
  if (const JsonValue* q = v.find("quick"); q != nullptr && q->is_bool())
    rep.quick = q->as_bool();
  if (const JsonValue* host = v.find("host");
      host != nullptr && host->is_object()) {
    read_string(*host, "compiler", &rep.host.compiler);
    read_string(*host, "build_type", &rep.host.build_type);
    double threads = 0.0;
    if (read_number(*host, "hardware_threads", &threads))
      rep.host.hardware_threads = static_cast<unsigned>(threads);
    double affinity = 0.0;
    if (read_number(*host, "affinity_cpus", &affinity))
      rep.host.affinity_cpus = static_cast<unsigned>(affinity);
  }
  const JsonValue* arr = v.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return std::nullopt;
  for (const JsonValue& rv : arr->as_array()) {
    auto r = BenchResult::from_json(rv);
    if (!r) return std::nullopt;
    rep.results.push_back(std::move(*r));
  }
  return rep;
}

}  // namespace tcast::perf
