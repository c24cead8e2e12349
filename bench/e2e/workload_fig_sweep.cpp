// fig_sweep: the figure-reproduction path. The Fig. 2 grid (2tbins and
// expinc, 1+ and 2+) plus Fig. 5's abns:t series at N=128, t=16 over the
// 35-point x sweep, each point one perf::run_query_sweep call of a fixed
// trial count on a pool of hardware_concurrency workers. One figure is the
// fixed unit of work; the run repeats it until the time budget is spent and
// every repetition must reproduce the first one's per-point means.
//
// Layers: core (round engine, binning), group (the exact channel),
// common (SIMD kernels, RNG, thread pool). Never sim/radio/rcd/service.
#include <memory>
#include <mutex>

#include "analysis/bounds.hpp"
#include "bench/e2e/e2e.hpp"
#include "bench/figure_common.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace tcast::e2e {
namespace {

constexpr std::size_t kN = 128;
constexpr std::size_t kT = 16;
/// Traced runs record spans for one trial in kSpanEvery.
constexpr std::size_t kSpanEvery = 64;

struct Series {
  const char* algorithm;
  group::CollisionModel model;
  std::uint64_t figure;
  std::uint64_t series;
};

// Figure and series ids are the ones fig2_twoplus and fig5_abns use, so the
// trial streams are those of the figure binaries.
constexpr Series kSeries[] = {
    {"2tbins", group::CollisionModel::kOnePlus, 2, 1},
    {"2tbins", group::CollisionModel::kTwoPlus, 2, 2},
    {"expinc", group::CollisionModel::kOnePlus, 2, 3},
    {"expinc", group::CollisionModel::kTwoPlus, 2, 4},
    {"abns:t", group::CollisionModel::kOnePlus, 5, 1},
};

struct Point {
  const Series* series;
  perf::SweepPoint point;
};

std::vector<Point> figure_points() {
  std::vector<Point> out;
  for (const Series& s : kSeries)
    for (const std::size_t x : bench::x_sweep(kN, kT))
      out.push_back({&s, {x, kT, perf::sweep_point_id(s.figure, s.series, x)}});
  return out;
}

struct Figure {
  Digest digest;
  double mean_queries = 0.0;  ///< over every trial of the figure
};

/// One figure; each sweep point's call is recorded in `phase` when given.
Figure run_figure(ThreadPool& pool, const std::vector<Point>& points,
                  std::uint64_t seed, std::size_t trials,
                  PhaseRecorder* phase) {
  Figure f;
  for (const Point& p : points) {
    perf::QuerySweepSpec spec;
    spec.algorithm = p.series->algorithm;
    spec.n = kN;
    spec.points = {p.point};
    spec.trials = trials;
    spec.seed = seed;
    spec.channel.model = p.series->model;
    spec.pool = &pool;
    const std::uint64_t p0 = now_ns();
    const auto result = perf::run_query_sweep(spec);
    const std::uint64_t p1 = now_ns();
    if (phase != nullptr) phase->record(p1 - p0, trials);
    const double mean = result.queries[0].mean();
    f.digest.add_double(mean);
    f.mean_queries += mean;
  }
  f.mean_queries /= static_cast<double>(points.size());
  return f;
}

// ---- Traced replay ----------------------------------------------------------
//
// The sweep engine's per-trial loop, rebuilt from public calls so each layer
// can be timed: one ExactChannel workspace per thread behind a TimedChannel,
// the trial_stream_id stream, and RoundEngine::rebind + run_with_engine.

struct Lane {
  RngStream construction_rng{0};
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  std::unique_ptr<group::ExactChannel> channel;
  std::unique_ptr<TimedChannel> timed;
  std::unique_ptr<core::RoundEngine> engine;
  LayerTotals totals;
  std::uint64_t over_bound = 0;
};

class Lanes {
 public:
  Lane& for_this_thread(group::CollisionModel model, SpanBuffer* spans) {
    thread_local Lane* lane = nullptr;
    thread_local const Lanes* owner = nullptr;
    if (lane == nullptr || owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      lanes_.push_back(std::make_unique<Lane>());
      lane = lanes_.back().get();
      owner = this;
    }
    if (!lane->channel || lane->model != model) {
      group::ExactChannel::Config cfg;
      cfg.model = model;
      lane->model = model;
      lane->channel = std::make_unique<group::ExactChannel>(
          std::vector<bool>(kN, false), lane->construction_rng, cfg);
      lane->timed = std::make_unique<TimedChannel>(*lane->channel);
      lane->timed->bind(&lane->totals, spans);
      lane->engine = std::make_unique<core::RoundEngine>(
          *lane->timed, lane->construction_rng);
    }
    return *lane;
  }

  LayerTotals merged(std::uint64_t* over_bound) const {
    LayerTotals t;
    for (const auto& l : lanes_) {
      t += l->totals;
      *over_bound += l->over_bound;
    }
    return t;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

Digest traced_figure(ThreadPool& pool, const std::vector<Point>& points,
                     std::uint64_t seed, std::size_t trials, Lanes& lanes,
                     SpanBuffer& spans) {
  Digest digest;
  std::vector<double> values(trials);
  for (const Point& p : points) {
    const auto* algo = core::find_algorithm(p.series->algorithm);
    const perf::SweepPoint pt = p.point;
    const double bound = analysis::engine_query_bound(kN, pt.t);
    const group::CollisionModel model = p.series->model;
    parallel_for(
        trials,
        [&](std::size_t trial) {
          const std::uint64_t s0 = now_ns();
          RngStream rng(seed, trial_stream_id(pt.experiment_id, trial));
          Lane& lane = lanes.for_this_thread(model, &spans);
          const bool sampled = trial % kSpanEvery == 0;
          const std::uint64_t session_id = sampled ? spans.next_id() : 0;
          const std::uint64_t engine_id = sampled ? spans.next_id() : 0;

          const std::uint64_t a0 = now_ns();
          lane.channel->rebind_rng(rng);
          lane.channel->assign_random_positives(pt.x, rng);
          lane.channel->reset_query_counter();
          lane.timed->reset_query_counter();
          const std::uint64_t a1 = now_ns();

          lane.engine->rebind(*lane.timed, rng, core::EngineOptions{});
          lane.timed->set_span_parent(engine_id);
          const auto outcome = algo->run_with_engine(
              *lane.engine, lane.channel->all_nodes(), pt.t);
          const std::uint64_t e1 = now_ns();

          values[trial] = static_cast<double>(outcome.queries);
          LayerTotals& t = lane.totals;
          t.setup_ns += a1 - a0;
          t.engine_ns += e1 - a1;
          t.queries += outcome.queries;
          t.rounds += outcome.rounds;
          t.retries += outcome.retries;
          if (outcome.decision != (pt.x >= pt.t)) ++t.wrong;
          if (static_cast<double>(outcome.queries) > bound) ++lane.over_bound;
          ++t.sessions;
          const std::uint64_t s1 = now_ns();
          t.session_ns += s1 - s0;
          if (sampled) {
            spans.record({SpanName::kSession, session_id, 0, s0, s1});
            spans.record({SpanName::kSetup, spans.next_id(), session_id, a0, a1});
            spans.record({SpanName::kEngine, engine_id, session_id, a1, e1});
          }
        },
        &pool);
    RunningStats stats;  // reduced in trial order, as run_query_sweep does
    for (const double v : values) stats.add(v);
    digest.add_double(stats.mean());
  }
  return digest;
}

}  // namespace

Result run_fig_sweep(const Options& opts) {
  const std::size_t trials = opts.smoke ? 100 : 500;
  const std::vector<Point> points = figure_points();
  Result r;

  std::unique_ptr<ThreadPool> pool;
  // Set-up includes one warm-up figure on another seed: enough computation
  // that thread start-up and wake-up latency do not dominate setup_s.
  r.metrics["setup_s"] = timed_setups([&] {
    pool.reset();
    pool = std::make_unique<ThreadPool>(0);
    run_figure(*pool, points, opts.seed + 0x9e3779b97f4a7c15ULL, trials,
               nullptr);
  });

  const double budget_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Figure first;
  std::size_t figures = 0;
  const std::uint64_t start = now_ns();
  PhaseRecorder phase;
  do {
    const Figure f = run_figure(*pool, points, opts.seed, trials, &phase);
    if (figures++ == 0) {
      first = f;
      r.digest = f.digest;
    }
    r.check(f.digest == first.digest, "figure repetition changed its means");
    r.attempted += points.size() * trials;
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget_s);
  const std::uint64_t end = now_ns();

  phase.report(r, static_cast<double>(end - start) * 1e-9);
  r.metrics["queries_per_session"] = first.mean_queries;
  r.metrics["peak_rss_mb"] = self_peak_rss_mb();
  r.info["figures"] = static_cast<double>(figures);
  r.info["trials_per_point"] = static_cast<double>(trials);
  r.info["points"] = static_cast<double>(points.size());
  r.info["pool_threads"] = static_cast<double>(pool->worker_count() + 1);
  const double untraced_rate = static_cast<double>(r.attempted) /
                               (static_cast<double>(end - start) * 1e-9);

  if (opts.trace) {
    SpanBuffer spans(1 << 18);
    Lanes lanes;
    bool first_traced = true;
    const std::uint64_t t0 = now_ns();
    do {
      const Digest d =
          traced_figure(*pool, points, opts.seed, trials, lanes, spans);
      if (first_traced) r.traced_digest = d.hex();
      first_traced = false;
      r.check(d == first.digest, "traced replay digest differs from the sweep");
    } while (static_cast<double>(now_ns() - t0) * 1e-9 < budget_s);
    const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    std::uint64_t over_bound = 0;
    const LayerTotals totals = lanes.merged(&over_bound);
    r.attempted += totals.sessions;
    r.failed += totals.wrong;
    r.check(totals.wrong == 0, "traced replay returned a wrong verdict");
    r.check(over_bound == 0, "traced replay exceeded engine_query_bound");
    const double traced_rate = static_cast<double>(totals.sessions) / wall_s;
    layer_metrics(r, totals, pool->worker_count() + 1, wall_s, traced_rate,
                  untraced_rate);
    r.info["trace.span_every"] = kSpanEvery;
    r.info["trace.spans_dropped"] = static_cast<double>(spans.dropped());
    if (!opts.spans_path.empty())
      r.check(spans.dump(opts.spans_path), "cannot write " + opts.spans_path);
  }
  return r;
}

}  // namespace tcast::e2e
