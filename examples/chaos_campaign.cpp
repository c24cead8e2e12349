// chaos_campaign: the chaos engine's command-line front end.
//
// Runs a randomized fault campaign across the algorithm registry ×
// {exact, packet} × fault-plan grid with every conformance monitor online,
// then delta-debugs each violating trace down to a minimal reproducer.
//
//   chaos_campaign --sessions 8 --seed 1          # bounded smoke (CI)
//   chaos_campaign --sessions 64 --shrink         # nightly campaign
//   chaos_campaign --counting --sessions 32       # counting-portfolio
//                                                 # preset (nightly)
//   chaos_campaign --service --sessions 16        # daemon-level campaign
//                                                 # (src/service/chaos.hpp)
//
// Exit code 0 = zero violations; 1 otherwise. With --out-dir, minimized
// reproducers are written one per file (replay spec on line 1, regression
// stanza after) so CI can upload them as artifacts.
// A flag with a missing value, a number that is not a whole one in range,
// zero sessions or ops (a campaign that tests nothing), a --tiers entry
// other than exact or packet, or more than 256 workers prints
// "chaos_campaign: bad value for <flag>" and exits 2 before any session
// runs.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "chaos/chaos_engine.hpp"
#include "chaos/shrinker.hpp"
#include "common/parse.hpp"
#include "core/registry.hpp"
#include "service/chaos.hpp"

namespace {

/// Each worker is a pool thread, started before the first session.
constexpr std::size_t kMaxWorkers = 256;

struct Options {
  std::size_t sessions = 8;
  std::uint64_t seed = 1;
  std::string tiers = "exact,packet";
  std::string algos;  ///< comma-separated registry names; empty = all
  std::size_t workers = 0;  ///< 0 = the global pool's default
  bool counting = false;
  bool service = false;
  std::size_t service_ops = 400;
  bool shrink = false;
  bool emit_stanza = false;
  std::string out_dir;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sessions N] [--seed S] [--tiers exact,packet]\n"
               "          [--algos NAME,NAME,...] [--counting]\n"
               "          [--workers N]\n"
               "          [--service] [--ops N]\n"
               "          [--shrink] [--emit-stanza]\n"
               "          [--out-dir DIR]\n"
               "  --algos    restrict the campaign to the named registry\n"
               "             algorithms (default: every non-oracle entry)\n"
               "  --workers  size of the session fan-out pool, at most 256\n"
               "             (default: hardware concurrency); campaign\n"
               "             results are bit-identical for any value\n"
               "  --counting use the counting-portfolio preset: all count:*\n"
               "             adapters over the loss/crash plan axis\n"
               "  --service  attack the tcastd service tier instead: one\n"
               "             seeded op-script campaign per session (kill/\n"
               "             reboot/overload/deadline ops); failing scripts\n"
               "             are ddmin-shrunk and written to --out-dir\n"
               "  --ops      ops per service campaign (default 400)\n",
               argv0);
}

int bad_value(const std::string& flag) {
  std::fprintf(stderr, "chaos_campaign: bad value for %s\n", flag.c_str());
  return 2;
}

/// Fills `opts` from argv; returns 0 to run, or the exit code to stop with
/// after printing why.
int parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Points `v` at the flag's value; false when it is missing.
    const char* v = nullptr;
    const auto value = [&] {
      v = i + 1 < argc ? argv[++i] : nullptr;
      return v != nullptr;
    };
    const auto number = [&](auto& out) {
      return value() && tcast::parse_int(std::string_view(v), out);
    };
    const auto text = [&](std::string& out) {
      if (!value()) return false;
      out = v;
      return true;
    };
    bool good = true;
    if (arg == "--sessions") {
      good = number(opts.sessions) && opts.sessions > 0;
    } else if (arg == "--seed") {
      good = number(opts.seed);
    } else if (arg == "--tiers") {
      good = text(opts.tiers);
      for (const auto tier : tcast::split(opts.tiers, ','))
        good = good && tcast::chaos::parse_tier(tier).has_value();
    } else if (arg == "--algos") {
      good = text(opts.algos);
    } else if (arg == "--workers") {
      good = number(opts.workers) && opts.workers <= kMaxWorkers;
    } else if (arg == "--counting") {
      opts.counting = true;
    } else if (arg == "--service") {
      opts.service = true;
    } else if (arg == "--ops") {
      good = number(opts.service_ops) && opts.service_ops > 0;
    } else if (arg == "--shrink") {
      opts.shrink = true;
    } else if (arg == "--emit-stanza") {
      opts.emit_stanza = true;
    } else if (arg == "--out-dir") {
      good = text(opts.out_dir);
    } else {
      usage(argv[0]);
      return 2;
    }
    if (!good) return bad_value(arg);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast;
  Options opts;
  if (const int code = parse_args(argc, argv, opts); code != 0) return code;

  if (opts.service) {
    // Daemon-level campaign: each session is an independent seeded op
    // script replayed against a fresh TcastService under a ManualClock
    // (src/service/chaos.hpp). run_service_campaign already shrinks
    // failing scripts with ddmin; here we just fan seeds out and persist
    // the minimized traces.
    std::size_t failing_sessions = 0;
    for (std::size_t s = 0; s < opts.sessions; ++s) {
      service::ServiceCampaignConfig scfg;
      scfg.seed = opts.seed + s;
      scfg.ops = opts.service_ops;
      const auto result = service::run_service_campaign(scfg);
      std::printf("service campaign seed %llu: %s\n",
                  static_cast<unsigned long long>(scfg.seed),
                  result.report.summary().c_str());
      if (result.report.ok()) continue;
      ++failing_sessions;
      for (const auto& failure : result.report.failures)
        std::printf("  breach: %s\n", failure.c_str());
      if (!result.minimized.empty()) {
        std::printf("  minimized to %zu ops\n", result.minimized.size());
        if (!opts.out_dir.empty()) {
          const auto path = opts.out_dir + "/service_reproducer_seed" +
                            std::to_string(scfg.seed) + ".trace";
          std::ofstream out(path);
          out << "# replay: run_service_ops(parse_trace(...)); generated "
                 "with seed="
              << scfg.seed << " ops=" << opts.service_ops << "\n"
              << service::encode_trace(result.minimized);
        }
      }
    }
    return failing_sessions == 0 ? 0 : 1;
  }

  chaos::CampaignConfig cfg;
  if (opts.counting) cfg = chaos::counting_campaign_config(opts.seed);
  cfg.sessions_per_cell = opts.sessions;
  cfg.seed = opts.seed;
  std::unique_ptr<tcast::ThreadPool> pool;
  if (opts.workers > 0) {
    pool = std::make_unique<tcast::ThreadPool>(opts.workers);
    cfg.pool = pool.get();
  }
  if (!opts.algos.empty()) {
    cfg.algorithms.clear();
    std::size_t start = 0;
    while (start <= opts.algos.size()) {
      const auto comma = opts.algos.find(',', start);
      const auto end = comma == std::string::npos ? opts.algos.size() : comma;
      if (end > start)
        cfg.algorithms.push_back(opts.algos.substr(start, end - start));
      start = end + 1;
    }
    for (const auto& name : cfg.algorithms) {
      if (core::find_algorithm(name) == nullptr) {
        std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
        return 2;
      }
    }
  }
  // Every --tiers entry names a tier (parse_args); exact runs first.
  cfg.tiers.clear();
  if (opts.tiers.find("exact") != std::string::npos)
    cfg.tiers.push_back(chaos::Tier::kExact);
  if (opts.tiers.find("packet") != std::string::npos)
    cfg.tiers.push_back(chaos::Tier::kPacket);

  const auto result = chaos::run_campaign(cfg);
  std::printf("chaos campaign: %zu sessions, %zu faults injected, "
              "%zu violating, false-yes=%zu false-no=%zu\n",
              result.sessions, result.faults_injected,
              result.violating.size(), result.false_yes, result.false_no);

  if (opts.shrink) {
    const auto pred = chaos::violates_any();
    std::size_t index = 0;
    for (const auto& victim : result.violating) {
      const auto shrunk = chaos::shrink(victim.scenario, victim.trace, pred);
      std::printf("reproducer %zu: %zu -> %zu events, %zu probes\n  %s\n",
                  index, shrunk.original_events, shrunk.trace.events.size(),
                  shrunk.probes, shrunk.replay_spec().c_str());
      const auto stanza = shrunk.regression_stanza(
          "Reproducer" + std::to_string(index));
      if (opts.emit_stanza) std::fputs(stanza.c_str(), stdout);
      if (!opts.out_dir.empty()) {
        const auto path =
            opts.out_dir + "/reproducer_" + std::to_string(index) + ".txt";
        std::ofstream out(path);
        out << shrunk.replay_spec() << "\n\n" << stanza;
      }
      ++index;
    }
  }

  return result.violating.empty() ? 0 : 1;
}
