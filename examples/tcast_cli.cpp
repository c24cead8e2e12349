// tcast_cli — run threshold-query simulations from the command line.
//
//   tcast_cli [--algo NAME] [--n N] [--x X] [--t T] [--model 1+|2+]
//             [--trials K] [--seed S] [--tier exact|packet] [--list]
//             [--fault-plan SPEC] [--fault-seed S] [--retry SPEC]
//             [--deadline-ms D] [--max-retries R] [--verbose]
//
// Examples:
//   tcast_cli --list
//   tcast_cli --algo 2tbins --n 128 --x 20 --t 16 --trials 1000
//   tcast_cli --algo prob-abns --n 32 --x 12 --t 8 --model 2+
//   tcast_cli --tier packet --n 12 --x 5 --t 4     # full radio emulation
//   tcast_cli --n 24 --x 8 --t 8 --fault-plan ge=0.02:0.25:0:0.7
//             --retry fixed:3 --verbose            # loss-robustness sweep
//   tcast_cli --tier packet --n 64 --x 20 --t 16 --deadline-ms 5
//             --max-retries 3                      # deadline + backoff
//
// --deadline-ms arms the same QueryCancelToken the tcastd service uses:
// a trial whose wall-clock budget expires mid-run is cancelled between
// queries, within 32 queries of the deadline (never a fabricated
// verdict) and, with --max-retries > 0,
// retried under jittered exponential backoff (service/backoff.hpp).
//
// A flag with a missing value, a number that is not a whole one in range,
// zero trials, a --deadline-ms whose deadline would overflow the clock, a
// --model other than 1+ or 2+, or a --tier other than exact or packet
// prints "tcast_cli: bad value for <flag>" and exits 2 before any trial.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "common/monte_carlo.hpp"
#include "common/parse.hpp"
#include "core/registry.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"
#include "service/backoff.hpp"
#include "service/shard.hpp"

namespace {

struct CliOptions {
  std::string algo = "2tbins";
  std::size_t n = 128;
  std::size_t x = 16;
  std::size_t t = 16;
  tcast::group::CollisionModel model =
      tcast::group::CollisionModel::kOnePlus;
  std::size_t trials = 1000;
  std::uint64_t seed = 1;
  bool packet_tier = false;
  bool list = false;
  bool verbose = false;
  std::optional<tcast::faults::FaultPlan> fault_plan;
  std::uint64_t fault_seed = 1;
  tcast::core::RetryPolicy retry;
  std::uint64_t deadline_ms = 0;  ///< 0 = no per-trial deadline
  std::size_t max_retries = 0;   ///< deadline-expired retry budget
  bool ok = true;
};

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const auto arg = std::string(argv[i]);
    // Points `v` at the flag's value; false when it is missing.
    const char* v = nullptr;
    const auto value = [&] {
      v = i + 1 < argc ? argv[++i] : nullptr;
      return v != nullptr;
    };
    const auto number = [&](auto& out) {
      return value() && tcast::parse_int(std::string_view(v), out);
    };
    const auto one_of = [&](const char* a, const char* b) {
      return value() && (std::strcmp(v, a) == 0 || std::strcmp(v, b) == 0);
    };
    bool good = true;
    if (arg == "--list") {
      o.list = true;
    } else if (arg == "--verbose") {
      o.verbose = true;
    } else if (arg == "--algo") {
      good = value();
      if (good) o.algo = v;
    } else if (arg == "--n") {
      good = number(o.n);
    } else if (arg == "--x") {
      good = number(o.x);
    } else if (arg == "--t") {
      good = number(o.t);
    } else if (arg == "--trials") {
      good = number(o.trials) && o.trials > 0;
    } else if (arg == "--seed") {
      good = number(o.seed);
    } else if (arg == "--fault-seed") {
      good = number(o.fault_seed);
    } else if (arg == "--fault-plan") {
      auto plan = value() ? tcast::faults::FaultPlan::parse(v) : std::nullopt;
      if (!plan) {
        std::fprintf(stderr, "malformed --fault-plan spec: %s\n",
                     v ? v : "(missing)");
        o.ok = false;
      } else {
        o.fault_plan = *plan;
      }
    } else if (arg == "--retry") {
      auto policy =
          value() ? tcast::core::RetryPolicy::parse(v) : std::nullopt;
      if (!policy) {
        std::fprintf(stderr,
                     "malformed --retry spec (none | fixed:R | "
                     "adaptive:TARGET[:CAP]): %s\n",
                     v ? v : "(missing)");
        o.ok = false;
      } else {
        o.retry = *policy;
      }
    } else if (arg == "--deadline-ms") {
      // The deadline is now + D·1000 on the 64-bit microsecond clock; half
      // its range leaves room for now.
      constexpr auto kMaxMs = std::numeric_limits<std::uint64_t>::max() / 2000;
      good = number(o.deadline_ms) && o.deadline_ms <= kMaxMs;
    } else if (arg == "--max-retries") {
      good = number(o.max_retries);
    } else if (arg == "--model") {
      good = one_of("1+", "2+");
      if (good)
        o.model = v[0] == '2' ? tcast::group::CollisionModel::kTwoPlus
                              : tcast::group::CollisionModel::kOnePlus;
    } else if (arg == "--tier") {
      good = one_of("exact", "packet");
      if (good) o.packet_tier = v[0] == 'p';
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      o.ok = false;
    }
    if (!good) {
      std::fprintf(stderr, "tcast_cli: bad value for %s\n", arg.c_str());
      o.ok = false;
      return o;
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast;
  const auto opts = parse(argc, argv);
  if (!opts.ok) return 2;

  if (opts.list) {
    std::printf("%-16s %s\n", "name", "description");
    for (const auto& spec : core::algorithm_registry())
      std::printf("%-16s %s%s\n", spec.name.c_str(),
                  spec.description.c_str(),
                  spec.needs_oracle ? "  [needs ground truth]" : "");
    return 0;
  }

  const auto* spec = core::find_algorithm(opts.algo);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s' (try --list)\n",
                 opts.algo.c_str());
    return 2;
  }
  if (opts.x > opts.n) {
    std::fprintf(stderr, "--x must be <= --n\n");
    return 2;
  }

  MonteCarloConfig mc;
  mc.trials = opts.trials;
  mc.seed = opts.seed;
  RunningStats queries, rounds, retries;
  Proportion correct;
  std::size_t false_yes = 0, false_no = 0, faults_injected = 0,
              faults_seen = 0;
  std::size_t deadline_hits = 0, deadline_retries = 0,
              deadline_unresolved = 0;
  RngStream backoff_rng(opts.seed, 0xbac0ff);
  // Per-node crash census across all trials: crashes, reboots, and how
  // many trials ended with the node still down.
  struct NodeCensus {
    std::size_t crashes = 0, reboots = 0, ended_down = 0;
  };
  std::map<NodeId, NodeCensus> census;
  const bool truth = opts.x >= opts.t;

  for (std::size_t trial = 0; trial < mc.trials; ++trial) {
    RngStream rng(mc.seed, trial_stream_id(0, trial));
    core::EngineOptions eopts;
    eopts.retry = opts.retry;

    // Lambda over the base channel so fault injection composes with both
    // tiers identically.
    const auto run_on = [&](group::QueryChannel& base,
                            std::span<const NodeId> nodes) {
      if (!opts.fault_plan) return spec->run(base, nodes, opts.t, rng, eopts);
      faults::FaultPlan plan = *opts.fault_plan;
      plan.seed = opts.fault_seed + trial;  // replayable per trial
      faults::FaultyChannel faulty(base, nodes, plan);
      faulty.set_session(trial);  // log lines render "s=TRIAL q=..."
      const auto out = spec->run(faulty, nodes, opts.t, rng, eopts);
      faults_injected += faulty.log().size();
      for (const auto& ev : faulty.log().events()) {
        if (ev.kind == faults::FaultEvent::Kind::kCrash)
          ++census[ev.node].crashes;
        else if (ev.kind == faults::FaultEvent::Kind::kReboot)
          ++census[ev.node].reboots;
      }
      for (const NodeId id : nodes)
        if (faulty.is_crashed(id)) ++census[id].ended_down;
      if (opts.verbose && !faulty.log().empty())
        std::printf("trial %zu faults (plan %s):\n%s", trial,
                    plan.spec().c_str(), faulty.log().to_string().c_str());
      return out;
    };

    // Deadline + backoff wrapper: the same QueryCancelToken/BackoffPolicy
    // plumbing tcastd uses, driven from the CLI.
    static std::atomic<bool> never_killed{false};
    const auto run_with_deadline = [&](group::QueryChannel& base,
                                       std::span<const NodeId> nodes) {
      if (opts.deadline_ms == 0) return run_on(base, nodes);
      const auto& clock = service::RealClock::instance();
      service::BackoffPolicy backoff;
      backoff.max_retries = opts.max_retries;
      std::size_t attempt = 0;
      for (;;) {
        const service::QueryCancelToken token(
            clock, clock.now_us() + opts.deadline_ms * 1000, never_killed);
        eopts.cancel = &token;
        const auto out = run_on(base, nodes);
        eopts.cancel = nullptr;
        if (!out.cancelled) return out;
        ++deadline_hits;
        if (attempt >= backoff.max_retries) return out;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            backoff.delay_ms(attempt, 0, backoff_rng)));
        ++attempt;
        ++deadline_retries;
      }
    };

    core::ThresholdOutcome out;
    if (opts.packet_tier) {
      std::vector<bool> positive(opts.n, false);
      for (const NodeId id : rng.sample_subset(opts.n, opts.x))
        positive[static_cast<std::size_t>(id)] = true;
      group::PacketChannel::Config cfg;
      cfg.model = opts.model;
      cfg.seed = mc.seed + trial;
      group::PacketChannel channel(positive, cfg);
      eopts.ordering = core::BinOrdering::kInOrder;
      out = run_with_deadline(channel, channel.all_nodes());
    } else {
      group::ExactChannel::Config cfg;
      cfg.model = opts.model;
      auto channel = group::ExactChannel::with_random_positives(
          opts.n, opts.x, rng, cfg);
      if (opts.fault_plan) eopts.ordering = core::BinOrdering::kInOrder;
      out = run_with_deadline(channel, channel.all_nodes());
    }
    if (out.cancelled) {
      // The retry budget is spent and the trial never reached a verdict:
      // report it as unresolved, never as a (meaningless) decision.
      ++deadline_unresolved;
      queries.add(static_cast<double>(out.queries));
      continue;
    }
    queries.add(static_cast<double>(out.queries));
    rounds.add(static_cast<double>(out.rounds));
    retries.add(static_cast<double>(out.retries));
    faults_seen += out.faults_seen;
    correct.add(out.decision == truth);
    if (out.decision && !truth) ++false_yes;
    if (!out.decision && truth) ++false_no;
  }

  std::printf("algorithm : %s (%s)\n", spec->name.c_str(),
              spec->description.c_str());
  std::printf("instance  : n=%zu x=%zu t=%zu model=%s tier=%s truth=%s\n",
              opts.n, opts.x, opts.t,
              opts.model == group::CollisionModel::kOnePlus ? "1+" : "2+",
              opts.packet_tier ? "packet" : "exact", truth ? "x>=t" : "x<t");
  std::printf("queries   : %s\n", queries.to_string().c_str());
  std::printf("rounds    : %s\n", rounds.to_string().c_str());
  std::printf("accuracy  : %.2f%% (%zu/%zu correct)\n",
              100.0 * correct.value(), correct.successes(),
              correct.trials());
  if (opts.deadline_ms > 0) {
    std::printf(
        "deadline  : %llums budget; %zu expirations, %zu backoff retries, "
        "%zu trials unresolved\n",
        static_cast<unsigned long long>(opts.deadline_ms), deadline_hits,
        deadline_retries, deadline_unresolved);
  }
  if (opts.fault_plan) {
    std::printf("faults    : plan=%s retry=%s\n",
                opts.fault_plan->spec().c_str(), opts.retry.spec().c_str());
    std::printf("wrong     : %zu false-yes, %zu false-no over %zu trials\n",
                false_yes, false_no, mc.trials);
    std::printf("injected  : %zu faults (%zu caught by retries)\n",
                faults_injected, faults_seen);
    std::printf("retries   : %s\n", retries.to_string().c_str());
    if (opts.verbose && !census.empty()) {
      std::printf("crashed-node census over %zu trials:\n", mc.trials);
      for (const auto& [id, c] : census)
        std::printf("  node %llu: %zu crashes, %zu reboots, "
                    "ended %zu trials down\n",
                    static_cast<unsigned long long>(id), c.crashes,
                    c.reboots, c.ended_down);
    }
  }
  return 0;
}
