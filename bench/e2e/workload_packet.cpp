// packet_fresh and packet_resident: one packet-tier tcast session —
// algorithm → QueryChannel → rcd → MAC → radio → event queue — used in two
// opposite ways, single-threaded.
//
// packet_fresh builds a fresh N=32 PacketChannel per session and destroys
// it after (the fig4 "reboot between runs" shape), so world set-up is a
// large share of each session. packet_resident builds four N=128 worlds
// once and rotates sessions over them, so polls, re-polls and retries
// dominate and set-up is ~0. A set-up-only gain must show on the first and
// not on the second.
//
// Sessions are numbered; session i draws its inputs from
// RngStream(seed, trial_stream_id(experiment, i)). The first `prefix`
// sessions of a phase form the digest and the simulated metrics.
#include <array>
#include <memory>

#include "analysis/bounds.hpp"
#include "bench/e2e/e2e.hpp"
#include "core/registry.hpp"
#include "group/packet_channel.hpp"

namespace tcast::e2e {
namespace {

constexpr std::uint64_t kFreshSessions = 0xf1e5;
constexpr std::uint64_t kResidentWorlds = 0x7e51d;
constexpr std::uint64_t kResidentSessions = 0x7e5e5;
constexpr std::uint64_t kWarmup = 0xa7a7;

struct SessionRecord {
  std::size_t t = 0;
  bool truth = false;  ///< x >= t
  bool lossy = false;
  core::ThresholdOutcome outcome;
  std::uint64_t repolls = 0;
  SimTime airtime_us = 0;
};

/// Traced runs record spans for one session in kSpanEvery; every session
/// is timed.
constexpr std::uint64_t kSpanEvery = 16;

/// Spans and per-layer totals of a traced phase; null = untraced.
struct Tracer {
  LayerTotals totals;
  SpanBuffer spans{1 << 18};
  std::uint64_t session_id = 0;  ///< 0 = this session records no spans
  std::uint64_t engine_id = 0;

  void span(SpanName name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t t0, std::uint64_t t1) {
    if (session_id != 0) spans.record({name, id, parent, t0, t1});
  }
};

struct Phase {
  std::uint64_t start_ns = now_ns();
  std::uint64_t end_ns = 0;
  PhaseRecorder recorder;
  Digest digest;
  std::uint64_t sessions = 0;
  double prefix_queries = 0.0;
  std::uint64_t over_bound = 0;
  std::uint64_t false_yes = 0;
  std::uint64_t lossless_wrong = 0;
  std::uint64_t wrong = 0;
};

/// Runs `session(i)` for i = 0, 1, ... until the budget is spent and at
/// least `prefix` sessions ran.
template <typename SessionFn>
Phase run_phase(SessionFn&& session, std::size_t prefix, double budget_s,
                std::size_t n, Tracer* tracer) {
  Phase ph;
  const auto budget_ns = static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint64_t i = 0;
  for (std::uint64_t s0 = ph.start_ns;
       i < prefix || s0 - ph.start_ns < budget_ns; ++i) {
    if (tracer != nullptr) {
      const bool sampled = i % kSpanEvery == 0;
      tracer->session_id = sampled ? tracer->spans.next_id() : 0;
      tracer->engine_id = sampled ? tracer->spans.next_id() : 0;
    }
    const SessionRecord rec = session(i);
    const std::uint64_t s1 = now_ns();
    ph.recorder.record(s1 - s0);
    if (tracer != nullptr) {
      LayerTotals& t = tracer->totals;
      ++t.sessions;
      t.session_ns += s1 - s0;
      t.queries += rec.outcome.queries;
      t.rounds += rec.outcome.rounds;
      t.retries += rec.outcome.retries;
      t.repolls += rec.repolls;
      t.airtime_ms += static_cast<double>(rec.airtime_us) * 1e-3;
      if (rec.outcome.decision != rec.truth) ++t.wrong;
      tracer->span(SpanName::kSession, tracer->session_id, 0, s0, s1);
    }
    if (rec.outcome.decision != rec.truth) {
      ++ph.wrong;
      if (rec.outcome.decision) ++ph.false_yes;
      if (!rec.lossy) ++ph.lossless_wrong;
    }
    if (static_cast<double>(rec.outcome.queries) >
        analysis::engine_query_bound(n, rec.t))
      ++ph.over_bound;
    if (i < prefix) {
      ph.digest.add(rec.outcome.decision ? 1 : 0);
      ph.digest.add(rec.outcome.queries);
      ph.digest.add(rec.outcome.rounds);
      ph.digest.add(rec.outcome.retries);
      ph.digest.add(rec.repolls);
      ph.digest.add(static_cast<std::uint64_t>(rec.airtime_us));
      ph.prefix_queries += static_cast<double>(rec.outcome.queries);
    }
    s0 = s1;
  }
  ph.sessions = i;
  ph.end_ns = now_ns();
  ph.prefix_queries /= static_cast<double>(prefix);
  return ph;
}

double wall_s(const Phase& ph) {
  return static_cast<double>(ph.end_ns - ph.start_ns) * 1e-9;
}

/// Runs one algorithm session on `world`, through a TimedChannel when
/// traced. The registry's `run` is the entry point a caller of the library
/// uses for one query.
SessionRecord run_session(group::PacketChannel& world, const char* algorithm,
                          std::size_t t, std::size_t x, RngStream& rng,
                          const core::EngineOptions& eopts, Tracer* tracer) {
  SessionRecord rec;
  rec.t = t;
  rec.truth = x >= t;
  rec.lossy = world.lossy();
  const SimTime sim0 = world.elapsed();
  const std::uint64_t repolls0 = world.repolls();
  const auto* algo = core::find_algorithm(algorithm);
  if (tracer == nullptr) {
    rec.outcome = algo->run(world, world.all_nodes(), t, rng, eopts);
  } else {
    TimedChannel timed(world);
    timed.bind(&tracer->totals, &tracer->spans);
    timed.set_span_parent(tracer->engine_id);
    const std::uint64_t e0 = now_ns();
    rec.outcome = algo->run(timed, world.all_nodes(), t, rng, eopts);
    const std::uint64_t e1 = now_ns();
    tracer->totals.engine_ns += e1 - e0;
    tracer->span(SpanName::kEngine, tracer->engine_id, tracer->session_id,
                 e0, e1);
  }
  rec.airtime_us = world.elapsed() - sim0;
  rec.repolls = world.repolls() - repolls0;
  return rec;
}

std::vector<bool> random_positives(std::size_t n, std::size_t x,
                                   RngStream& rng) {
  std::vector<bool> positive(n, false);
  for (const NodeId id : rng.sample_subset(n, x))
    positive[static_cast<std::size_t>(id)] = true;
  return positive;
}

/// Counts a phase's sessions and runs its correctness checks.
void report_phase(Result& r, const Phase& ph, const char* what) {
  r.attempted += ph.sessions;
  r.failed += ph.wrong;
  r.check(ph.false_yes == 0, std::string(what) + ": false \"yes\" verdict");
  r.check(ph.lossless_wrong == 0,
          std::string(what) + ": wrong verdict on a lossless world");
  r.check(ph.over_bound == 0,
          std::string(what) + ": session exceeded engine_query_bound");
}

void report_untraced(Result& r, const Phase& ph, double setup_s) {
  r.digest = ph.digest;
  r.metrics["setup_s"] = setup_s;
  ph.recorder.report(r, wall_s(ph));
  r.metrics["queries_per_session"] = ph.prefix_queries;
  r.metrics["peak_rss_mb"] = self_peak_rss_mb();
  r.info["sessions"] = static_cast<double>(ph.sessions);
  r.info["wrong"] = static_cast<double>(ph.wrong);
  report_phase(r, ph, "untraced");
}

void report_traced(Result& r, const Phase& untraced, const Phase& traced,
                   Tracer& tracer, const Options& opts) {
  r.traced_digest = traced.digest.hex();
  r.check(traced.digest == untraced.digest,
          "traced run digest differs from the untraced run");
  report_phase(r, traced, "traced");
  layer_metrics(r, tracer.totals, 1, wall_s(traced),
                static_cast<double>(traced.sessions) / wall_s(traced),
                static_cast<double>(untraced.sessions) / wall_s(untraced));
  r.info["trace.span_every"] = kSpanEvery;
  r.info["trace.spans_dropped"] = static_cast<double>(tracer.spans.dropped());
  if (!opts.spans_path.empty())
    r.check(tracer.spans.dump(opts.spans_path),
            "cannot write " + opts.spans_path);
}

// ---- packet_fresh -----------------------------------------------------------

constexpr std::size_t kFreshN = 32;

SessionRecord fresh_session(std::uint64_t seed, std::uint64_t experiment,
                            std::uint64_t i, Tracer* tracer) {
  RngStream rng(seed, trial_stream_id(experiment, i));
  constexpr std::array<std::size_t, 3> kThresholds = {2, 4, 8};
  const std::size_t t = kThresholds[rng.uniform_below(kThresholds.size())];
  const auto x = static_cast<std::size_t>(rng.uniform_below(2 * t + 1));
  group::PacketChannel::Config cfg;
  cfg.model = i % 2 == 0 ? group::CollisionModel::kOnePlus
                         : group::CollisionModel::kTwoPlus;
  cfg.seed = rng.bits();
  core::EngineOptions eopts;
  eopts.ordering = core::BinOrdering::kInOrder;

  const std::uint64_t a0 = now_ns();
  auto world = std::make_unique<group::PacketChannel>(
      random_positives(kFreshN, x, rng), cfg);
  const std::uint64_t a1 = now_ns();
  const SessionRecord rec =
      run_session(*world, "2tbins", t, x, rng, eopts, tracer);
  const std::uint64_t d0 = now_ns();
  world.reset();
  const std::uint64_t d1 = now_ns();
  if (tracer != nullptr) {
    tracer->totals.setup_ns += (a1 - a0) + (d1 - d0);
    tracer->span(SpanName::kSetup, tracer->spans.next_id(),
                 tracer->session_id, a0, a1);
    tracer->span(SpanName::kSetup, tracer->spans.next_id(),
                 tracer->session_id, d0, d1);
  }
  return rec;
}

}  // namespace

Result run_packet_fresh(const Options& opts) {
  const std::size_t prefix = opts.smoke ? 500 : 40000;
  const std::size_t warmup = opts.smoke ? 200 : 4000;
  Result r;

  const double setup_s = timed_setups([&] {
    for (std::size_t i = 0; i < warmup; ++i)
      fresh_session(opts.seed, kWarmup, i, nullptr);
  });

  const double budget_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Phase ph = run_phase(
      [&](std::uint64_t i) {
        return fresh_session(opts.seed, kFreshSessions, i, nullptr);
      },
      prefix, budget_s, kFreshN, nullptr);
  report_untraced(r, ph, setup_s);

  if (opts.trace) {
    Tracer tracer;
    const Phase traced = run_phase(
        [&](std::uint64_t i) {
          return fresh_session(opts.seed, kFreshSessions, i, &tracer);
        },
        prefix, budget_s, kFreshN, &tracer);
    report_traced(r, ph, traced, tracer, opts);
  }
  return r;
}

// ---- packet_resident ----------------------------------------------------------

namespace {

constexpr std::size_t kResidentN = 128;
constexpr std::array<std::size_t, 4> kResidentX = {8, 15, 16, 24};
constexpr std::array<const char*, 3> kResidentAlgorithms = {"2tbins", "expinc",
                                                            "abns:t"};

/// Two lossy 1+ backcast worlds, where a lone HACK may go undecoded and
/// silent bins are re-polled and retried, then two lossless 2+ pollcast
/// worlds. Frame loss (clean_loss) and lossy 2+ worlds are left out because
/// they return wrong verdicts today: see README.md.
struct ResidentWorlds {
  std::array<std::unique_ptr<group::PacketChannel>, 4> worlds;

  void build(std::uint64_t seed) {
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      RngStream rng(seed, trial_stream_id(kResidentWorlds, k));
      group::PacketChannel::Config cfg;
      if (k < 2) {
        cfg.model = group::CollisionModel::kOnePlus;
        cfg.channel.hack = radio::HackReceptionModel();  // the paper's fit
        cfg.poll_attempts = 3;
      } else {
        cfg.model = group::CollisionModel::kTwoPlus;
      }
      cfg.seed = rng.bits();
      worlds[k].reset();
      worlds[k] = std::make_unique<group::PacketChannel>(
          random_positives(kResidentN, kResidentX[k], rng), cfg);
    }
  }

  SessionRecord session(std::uint64_t seed, std::uint64_t experiment,
                        std::uint64_t i, Tracer* tracer) {
    const std::size_t k = i % worlds.size();
    RngStream rng(seed, trial_stream_id(experiment, i));
    const std::size_t t = 8 + static_cast<std::size_t>(rng.uniform_below(17));
    core::EngineOptions eopts;
    eopts.ordering = core::BinOrdering::kInOrder;
    if (worlds[k]->lossy()) eopts.retry = core::RetryPolicy::fixed(2);
    const char* algorithm =
        kResidentAlgorithms[(i / worlds.size()) % kResidentAlgorithms.size()];
    return run_session(*worlds[k], algorithm, t, kResidentX[k], rng, eopts,
                       tracer);
  }

  void warm_up(std::uint64_t seed, std::size_t sessions) {
    for (std::size_t i = 0; i < sessions; ++i)
      session(seed, kWarmup, i, nullptr);
  }
};

}  // namespace

Result run_packet_resident(const Options& opts) {
  const std::size_t prefix = opts.smoke ? 60 : 3000;
  const std::size_t warmup = opts.smoke ? 20 : 200;
  Result r;

  ResidentWorlds worlds;
  const double setup_s = timed_setups([&] {
    worlds.build(opts.seed);
    worlds.warm_up(opts.seed, warmup);
  });

  const double budget_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Phase ph = run_phase(
      [&](std::uint64_t i) {
        return worlds.session(opts.seed, kResidentSessions, i, nullptr);
      },
      prefix, budget_s, kResidentN, nullptr);
  report_untraced(r, ph, setup_s);

  if (opts.trace) {
    // Same starting state as the untraced phase: rebuilt and warmed worlds.
    Tracer tracer;
    const std::uint64_t a0 = now_ns();
    worlds.build(opts.seed);
    const std::uint64_t a1 = now_ns();
    worlds.warm_up(opts.seed, warmup);
    const Phase traced = run_phase(
        [&](std::uint64_t i) {
          return worlds.session(opts.seed, kResidentSessions, i, &tracer);
        },
        prefix, budget_s, kResidentN, &tracer);
    tracer.totals.setup_ns += a1 - a0;
    tracer.totals.session_ns += a1 - a0;
    report_traced(r, ph, traced, tracer, opts);
  }
  return r;
}

}  // namespace tcast::e2e
