// service_bench — closed- and open-loop load rigs against an in-process
// TcastService, emitting latency percentiles into the perf trajectory.
//
//   service_bench [--quick] [--json PATH] [--shards N] [--workers W]
//                 [--queries Q] [--seed S]
//
// Two rigs, both over a Bonifati-style skewed workload (Zipf-hot
// populations, thresholds clustered at the decision boundary — the mix a
// deployed threshold service actually sees):
//
//   * closed_loop — W workers, one outstanding query each: the
//     steady-state regime. Reports end-to-end p50/p99/p999 and throughput.
//   * open_loop_overload — queries injected at ~2x the measured closed-loop
//     capacity with no back-pressure from the client side: the overload
//     regime the robustness PR is about. Reports tail latency of the
//     queries that did complete plus the shed/degraded/rejected mix; the
//     invariant (every response is a verdict, an honestly-tagged estimate,
//     or a typed error) is asserted here too — a load rig that tolerates
//     silent drops would be measuring a broken service.
//
// Results are tcast-bench-v1 entries with a `percentiles` object;
// tools/perf_gate.py gates p99/p999 growth the same way it gates
// throughput drops (inverted: larger latency = regression).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "perf/bench_harness.hpp"
#include "perf/latency.hpp"
#include "service/service.hpp"

namespace {

using namespace tcast;
using namespace tcast::service;

struct RigConfig {
  bool quick = false;
  std::size_t shards = 4;
  std::size_t workers = 4;
  std::size_t queries = 4000;
  std::uint64_t seed = 1;
};

struct Workload {
  std::vector<std::string> pops;
  std::vector<std::size_t> n;
  std::vector<std::size_t> x;
};

/// Zipf(s≈1) choice over k items: hot-population skew.
std::size_t zipf_pick(RngStream& rng, std::size_t k) {
  // Inverse-CDF over precomputable harmonic weights is overkill for k ≤ 8;
  // rejection from 1/(i+1) weights keeps the draw one-liner-simple.
  for (;;) {
    const auto i = static_cast<std::size_t>(rng.uniform_below(k));
    if (rng.uniform01() < 1.0 / static_cast<double>(i + 1)) return i;
  }
}

/// Threshold skewed toward the boundary x (the expensive, interesting
/// queries) with a uniform tail.
std::size_t skewed_threshold(RngStream& rng, std::size_t n, std::size_t x) {
  if (rng.uniform_below(10) < 7 && x > 0) {
    const std::size_t lo = x > 3 ? x - 3 : 1;
    const auto jitter = static_cast<std::size_t>(rng.uniform_below(7));
    return std::min(n, lo + jitter);
  }
  return 1 + static_cast<std::size_t>(rng.uniform_below(n));
}

Workload load_populations(TcastService& svc, RngStream& rng,
                          std::size_t count, std::size_t max_n) {
  Workload w;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t p = 0; p < count; ++p) {
    Request req;
    req.kind = RequestKind::kLoad;
    req.population = "hot" + std::to_string(p);
    req.n = max_n / (p + 1) < 32 ? 32 : max_n / (p + 1);
    req.x = static_cast<std::size_t>(rng.uniform_below(req.n + 1));
    req.seed = rng.bits() | 1;
    w.pops.push_back(req.population);
    w.n.push_back(req.n);
    w.x.push_back(req.x);
    svc.submit(req, [&](const Response&) {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_one();
    });
  }
  // The pump thread drains; drain_all() here would double-drive the shards.
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == count; });
  return w;
}

struct RigOutcome {
  std::uint64_t completed = 0;  ///< kOk responses
  std::uint64_t exact = 0;
  std::uint64_t approx = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline = 0;
  std::uint64_t other_typed = 0;
  std::uint64_t unresolved = 0;  ///< contract breach: callback never fired
  double wall_s = 0.0;
  perf::PercentileSummary latency;
};

perf::BenchResult to_result(const std::string& name, const RigConfig& cfg,
                            const RigOutcome& o) {
  perf::BenchResult r;
  r.name = name;
  r.unit = "query";
  r.items = o.completed;
  r.params = {{"shards", static_cast<double>(cfg.shards)},
              {"workers", static_cast<double>(cfg.workers)},
              {"queries", static_cast<double>(cfg.queries)},
              {"overloaded", static_cast<double>(o.overloaded)},
              {"deadline", static_cast<double>(o.deadline)},
              {"approx", static_cast<double>(o.approx)}};
  r.timing.reps = 1;
  r.timing.wall_min_s = r.timing.wall_median_s = o.wall_s;
  r.percentiles = {{"p50_us", o.latency.p50},
                   {"p90_us", o.latency.p90},
                   {"p99_us", o.latency.p99},
                   {"p999_us", o.latency.p999}};
  return r;
}

ServiceConfig make_service_config(const RigConfig& cfg) {
  ServiceConfig scfg;
  scfg.shards = cfg.shards;
  scfg.queue_capacity = 64;
  scfg.degrade_enter = 48;
  scfg.degrade_exit = 16;
  scfg.batch_max = 16;
  return scfg;
}

/// Closed loop: `workers` threads, one outstanding query each.
RigOutcome run_closed_loop(const RigConfig& cfg, const Workload& w,
                           TcastService& svc) {
  RigOutcome out;
  perf::LatencyRecorder recorder;
  std::mutex mu;
  std::atomic<std::int64_t> remaining{static_cast<std::int64_t>(cfg.queries)};

  const double t0 = perf::wall_now();
  std::vector<std::thread> threads;
  for (std::size_t wk = 0; wk < cfg.workers; ++wk) {
    threads.emplace_back([&, wk] {
      RngStream rng(cfg.seed, 100 + wk);
      while (remaining.fetch_sub(1, std::memory_order_acq_rel) > 0) {
        const auto p = zipf_pick(rng, w.pops.size());
        Request req;
        req.kind = RequestKind::kQuery;
        req.population = w.pops[p];
        req.t = skewed_threshold(rng, w.n[p], w.x[p]);
        req.deadline_ms = 200;

        std::mutex wait_mu;
        std::condition_variable wait_cv;
        bool got = false;
        Response resp;
        const double q0 = perf::wall_now();
        svc.submit(req, [&](const Response& r) {
          std::lock_guard<std::mutex> lock(wait_mu);
          resp = r;
          got = true;
          wait_cv.notify_one();
        });
        {
          std::unique_lock<std::mutex> lock(wait_mu);
          wait_cv.wait(lock, [&] { return got; });
        }
        const double q1 = perf::wall_now();

        std::lock_guard<std::mutex> lock(mu);
        switch (resp.status) {
          case StatusCode::kOk:
            ++out.completed;
            if (resp.mode == AnswerMode::kApproximate) {
              ++out.approx;
            } else {
              ++out.exact;
            }
            recorder.record(
                static_cast<std::uint64_t>((q1 - q0) * 1e6));
            break;
          case StatusCode::kOverloaded:
            ++out.overloaded;
            break;
          case StatusCode::kDeadlineExceeded:
            ++out.deadline;
            break;
          default:
            ++out.other_typed;
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = perf::wall_now() - t0;
  out.latency = recorder.summarize();
  return out;
}

/// Open loop at `rate_qps` (no client back-pressure): sustained overload
/// when the rate exceeds capacity.
RigOutcome run_open_loop(const RigConfig& cfg, const Workload& w,
                         TcastService& svc, double rate_qps) {
  RigOutcome out;
  perf::LatencyRecorder recorder;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t resolved = 0;

  RngStream rng(cfg.seed, 777);
  const double t0 = perf::wall_now();
  const double gap_s = 1.0 / rate_qps;
  for (std::uint64_t q = 0; q < cfg.queries; ++q) {
    const auto p = zipf_pick(rng, w.pops.size());
    Request req;
    req.kind = RequestKind::kQuery;
    req.population = w.pops[p];
    req.t = skewed_threshold(rng, w.n[p], w.x[p]);
    req.deadline_ms = 50;

    const double q0 = perf::wall_now();
    svc.submit(req, [&, q0](const Response& r) {
      const double q1 = perf::wall_now();
      std::lock_guard<std::mutex> lock(mu);
      ++resolved;
      switch (r.status) {
        case StatusCode::kOk:
          ++out.completed;
          if (r.mode == AnswerMode::kApproximate) {
            ++out.approx;
          } else {
            ++out.exact;
          }
          recorder.record(static_cast<std::uint64_t>((q1 - q0) * 1e6));
          break;
        case StatusCode::kOverloaded:
          ++out.overloaded;
          break;
        case StatusCode::kDeadlineExceeded:
          ++out.deadline;
          break;
        default:
          ++out.other_typed;
          break;
      }
      cv.notify_one();
    });

    // Paced injection; busy-wait-free.
    const double next = t0 + gap_s * static_cast<double>(q + 1);
    const double now = perf::wall_now();
    if (next > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(next - now));
    }
  }

  {
    // Liveness check: every injected query must resolve (the pump thread is
    // still running; we only wait, never double-drive the shards).
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return resolved == cfg.queries; })) {
      out.unresolved = cfg.queries - resolved;
    }
  }
  out.wall_s = perf::wall_now() - t0;
  out.latency = recorder.summarize();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RigConfig cfg;
  std::string json_path = "BENCH_service.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--json") {
      if (const char* v = next()) json_path = v;
    } else if (arg == "--shards") {
      if (const char* v = next()) cfg.shards = std::stoul(v);
    } else if (arg == "--workers") {
      if (const char* v = next()) cfg.workers = std::stoul(v);
    } else if (arg == "--queries") {
      if (const char* v = next()) cfg.queries = std::stoul(v);
    } else if (arg == "--seed") {
      if (const char* v = next()) cfg.seed = std::stoull(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (cfg.quick) cfg.queries = std::min<std::size_t>(cfg.queries, 400);

  RngStream setup_rng(cfg.seed, 3);
  std::vector<perf::BenchResult> results;

  // Closed loop.
  RigOutcome closed;
  {
    TcastService svc(make_service_config(cfg));
    svc.start_pump_thread();
    const auto w = load_populations(svc, setup_rng, 6, 512);
    closed = run_closed_loop(cfg, w, svc);
    svc.stop_pump_thread();
    results.push_back(to_result("service/closed_loop", cfg, closed));
    std::printf(
        "closed_loop : %llu ok (%llu exact, %llu approx) in %.2fs  "
        "p50=%.0fus p99=%.0fus p999=%.0fus\n",
        static_cast<unsigned long long>(closed.completed),
        static_cast<unsigned long long>(closed.exact),
        static_cast<unsigned long long>(closed.approx), closed.wall_s,
        closed.latency.p50, closed.latency.p99, closed.latency.p999);
  }

  // Open loop at ~2x the closed-loop capacity: sustained overload.
  {
    const double capacity_qps =
        closed.wall_s > 0.0
            ? static_cast<double>(closed.completed) / closed.wall_s
            : 1000.0;
    const double rate = std::max(100.0, 2.0 * capacity_qps);
    TcastService svc(make_service_config(cfg));
    svc.start_pump_thread();
    const auto w = load_populations(svc, setup_rng, 6, 512);
    const auto open = run_open_loop(cfg, w, svc, rate);
    svc.stop_pump_thread();
    results.push_back(to_result("service/open_loop_overload", cfg, open));
    std::printf(
        "open_loop   : rate=%.0f/s  %llu ok (%llu approx), %llu overloaded, "
        "%llu deadline, %llu other  p99=%.0fus p999=%.0fus\n",
        rate, static_cast<unsigned long long>(open.completed),
        static_cast<unsigned long long>(open.approx),
        static_cast<unsigned long long>(open.overloaded),
        static_cast<unsigned long long>(open.deadline),
        static_cast<unsigned long long>(open.other_typed), open.latency.p99,
        open.latency.p999);
    if (open.unresolved > 0) {
      std::fprintf(stderr,
                   "LIVENESS VIOLATION: %llu queries never resolved\n",
                   static_cast<unsigned long long>(open.unresolved));
      return 1;
    }
  }

  perf::Report report;
  report.host = perf::host_info();
  report.quick = cfg.quick;
  report.results = results;
  std::ofstream outf(json_path);
  if (!outf) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  outf << report.to_json_string();
  std::printf("%zu result(s) -> %s\n", results.size(), json_path.c_str());
  return 0;
}
