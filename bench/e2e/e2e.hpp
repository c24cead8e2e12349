// Shared plumbing of the tcast end-to-end benchmark (tcast_e2e).
//
// Each workload runs in its own process, sets itself up kSetupReps times
// (setup_s is the median), then measures for a wall-clock budget. Inputs
// come only from --seed. Outputs that the simulation determines — query
// counts, verdicts, simulated air time — are folded into a digest over a
// fixed prefix of the work, so two runs of one seed must agree bit for bit
// however fast the host is. The traced run (--trace 1) repeats that prefix
// through TimedChannel and must reproduce the same digest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "group/query_channel.hpp"
#include "perf/latency.hpp"

namespace tcast::e2e {

/// The host slows a core by up to 2x for bursts of about a second; with
/// ~0.1 s set-ups, a median over 15 outlasts such a burst.
inline constexpr int kSetupReps = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;            ///< reduced sizes with their own goldens
  std::string spans_path;        ///< traced run: spans.jsonl destination
  std::string tcastd_path;       ///< daemon binary (tcastd_mix)
  std::string run_dir;           ///< scratch dir for the daemon's socket
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// FNV-1a over 64-bit words: the bits of every output that must repeat.
class Digest {
 public:
  void add(std::uint64_t v);
  void add_double(double d);
  std::string hex() const;
  bool operator==(const Digest&) const = default;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one workload run reports back to run.py.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;       ///< failed correctness checks
  Digest digest;                           ///< untraced prefix digest
  std::string traced_digest;               ///< traced prefix digest, if run
  std::map<std::string, double> metrics;   ///< e2e and per-layer metrics
  std::map<std::string, double> info;      ///< sample counts, p999, ...

  void check(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }

  std::string to_json(const Options& opts) const;
};

double median(std::vector<double> xs);

/// Peak resident set of this process (ru_maxrss), MB.
double self_peak_rss_mb();

/// Median of kSetupReps timed calls of `setup`, seconds. The state built by
/// the last call is the one the run measures.
template <typename Fn>
double timed_setups(Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    setup();
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(secs));
}

/// Latencies and completed sessions of one measured phase. Percentiles are
/// exact up to 65,536 samples and come from a uniform systematic subsample
/// beyond that, so the recorder's memory does not grow with the speed of
/// the code it measures (which peak_rss_mb would then pick up).
class PhaseRecorder {
 public:
  void record(std::uint64_t latency_ns, std::uint64_t sessions = 1) {
    latency_.record(latency_ns);
    sessions_ += static_cast<double>(sessions);
  }

  /// Sets sessions_per_s (sessions over `seconds`), latency_p50_ms and
  /// latency_p99_ms; p999, the largest latency and the sample count go to
  /// the record's info.
  void report(Result& r, double seconds) const;

 private:
  double sessions_ = 0.0;
  perf::LatencyRecorder latency_{1 << 16};
};

// ---- Tracing --------------------------------------------------------------

/// Span names; the index is what a Span stores.
enum class SpanName : std::uint32_t {
  kSession,
  kSetup,
  kEngine,
  kAnnounce,
  kQuery,
  kRequest,
};
const char* to_string(SpanName n);

struct Span {
  SpanName name = SpanName::kSession;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Preallocated, append-only span store shared by every thread of a traced
/// run; spans past capacity are counted and dropped, never allocated.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : spans_(capacity) {}

  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const Span& s);
  std::uint64_t recorded() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Writes one JSON object per line; false on I/O failure.
  bool dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Time and counts per layer, summed over traced sessions. One per thread;
/// merged with +=.
struct LayerTotals {
  std::uint64_t sessions = 0;
  std::uint64_t session_ns = 0;   ///< whole session, as the harness saw it
  std::uint64_t setup_ns = 0;     ///< world build / channel re-seed
  std::uint64_t engine_ns = 0;    ///< algorithm run (core + group beneath)
  std::uint64_t announce_ns = 0;  ///< QueryChannel::announce
  std::uint64_t query_ns = 0;     ///< query_bin/query_set + oracle hooks
  std::uint64_t announces = 0;
  std::uint64_t queries = 0;
  std::uint64_t rounds = 0;
  std::uint64_t retries = 0;
  std::uint64_t repolls = 0;
  std::uint64_t wrong = 0;
  double airtime_ms = 0.0;

  LayerTotals& operator+=(const LayerTotals& o);
};

/// Decorator that times every call into the wrapped channel and counts
/// announces; spans are recorded only under a sampled session's engine
/// span (set_span_parent).
class TimedChannel final : public group::QueryChannel {
 public:
  explicit TimedChannel(group::QueryChannel& inner)
      : QueryChannel(inner.model()), inner_(&inner) {}

  void bind(LayerTotals* totals, SpanBuffer* spans) {
    totals_ = totals;
    spans_ = spans;
  }
  /// `parent` = the engine span channel spans hang off; 0 = no spans.
  void set_span_parent(std::uint64_t parent) { parent_ = parent; }

  bool lossy() const override { return inner_->lossy(); }
  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override;
  std::optional<std::size_t> oracle_positive_count(
      const group::BinAssignment& a, std::size_t idx) const override;
  const std::uint32_t* oracle_bin_counts(
      const group::BinAssignment& a) const override;
  group::ChannelFaultControl* fault_control() override {
    return inner_->fault_control();
  }

 protected:
  void do_announce(const group::BinAssignment& a) override;
  group::BinQueryResult do_query_bin(const group::BinAssignment& a,
                                     std::size_t idx) override;
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  void close(SpanName name, std::uint64_t t0, std::uint64_t* total) const;
  void mirror_extra_queries(QueryCount before);

  group::QueryChannel* inner_;
  LayerTotals* totals_ = nullptr;
  SpanBuffer* spans_ = nullptr;
  std::uint64_t parent_ = 0;
};

/// Fills the per-layer metrics from traced totals and checks that the layer
/// spans account for the traced session time. `threads` = threads that ran
/// sessions; `wall_s` = traced phase wall time; the rates are sessions/s of
/// the traced and untraced phases.
void layer_metrics(Result& r, const LayerTotals& t, std::size_t threads,
                   double wall_s, double traced_rate, double untraced_rate);

// ---- Workloads ------------------------------------------------------------

Result run_fig_sweep(const Options& opts);
Result run_packet_fresh(const Options& opts);
Result run_packet_resident(const Options& opts);
Result run_tcastd_mix(const Options& opts);

}  // namespace tcast::e2e
