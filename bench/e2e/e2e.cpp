#include "bench/e2e/e2e.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "perf/bench_harness.hpp"
#include "perf/json.hpp"

namespace tcast::e2e {

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  return perf::median_of(std::move(xs));
}

void PhaseRecorder::report(Result& r, double seconds) const {
  r.metrics["sessions_per_s"] = sessions_ / seconds;
  const perf::PercentileSummary s = latency_.summarize();
  r.metrics["latency_p50_ms"] = s.p50 * 1e-6;
  r.metrics["latency_p99_ms"] = s.p99 * 1e-6;
  r.info["latency_p999_ms"] = s.p999 * 1e-6;
  r.info["latency_max_ms"] = static_cast<double>(s.max) * 1e-6;
  r.info["latency_samples"] = static_cast<double>(s.count);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string Result::to_json(const Options& opts) const {
  perf::JsonValue::Object o;
  o["workload"] = opts.workload;
  o["seed"] = static_cast<double>(opts.seed);
  o["trace"] = opts.trace;
  o["smoke"] = opts.smoke;
  o["attempted"] = static_cast<double>(attempted);
  o["failed"] = static_cast<double>(failed);
  perf::JsonValue::Array fails;
  for (const auto& f : failures) fails.emplace_back(f);
  o["failures"] = std::move(fails);
  o["digest"] = digest.hex();
  if (!traced_digest.empty()) o["traced_digest"] = traced_digest;
  perf::JsonValue::Object m;
  for (const auto& [k, v] : metrics) m[k] = v;
  o["metrics"] = std::move(m);
  perf::JsonValue::Object i;
  for (const auto& [k, v] : info) i[k] = v;
  o["info"] = std::move(i);
  const perf::HostInfo host = perf::host_info();
  o["host"] = perf::JsonValue::Object{
      {"compiler", host.compiler},
      {"build_type", host.build_type},
      {"hardware_threads", static_cast<double>(host.hardware_threads)},
      {"affinity_cpus", static_cast<double>(host.affinity_cpus)}};
  return perf::JsonValue(std::move(o)).dump();
}

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSession: return "session";
    case SpanName::kSetup: return "group.setup";
    case SpanName::kEngine: return "core.engine";
    case SpanName::kAnnounce: return "group.announce";
    case SpanName::kQuery: return "group.query";
    case SpanName::kRequest: return "service.request";
  }
  return "?";
}

void SpanBuffer::record(const Span& s) {
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = s;
}

std::uint64_t SpanBuffer::recorded() const {
  return std::min<std::uint64_t>(next_.load(std::memory_order_relaxed),
                                 spans_.size());
}

bool SpanBuffer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t n = recorded();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << to_string(s.name) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  sessions += o.sessions;
  session_ns += o.session_ns;
  setup_ns += o.setup_ns;
  engine_ns += o.engine_ns;
  announce_ns += o.announce_ns;
  query_ns += o.query_ns;
  announces += o.announces;
  queries += o.queries;
  rounds += o.rounds;
  retries += o.retries;
  repolls += o.repolls;
  wrong += o.wrong;
  airtime_ms += o.airtime_ms;
  return *this;
}

void TimedChannel::close(SpanName name, std::uint64_t t0,
                         std::uint64_t* total) const {
  const std::uint64_t t1 = now_ns();
  *total += t1 - t0;
  if (parent_ != 0 && spans_ != nullptr)
    spans_->record({name, spans_->next_id(), parent_, t0, t1});
}

// The inner channel may count more than one query per call (the packet
// tier's backoff re-polls); the engine reads its cost from this channel's
// counter, so the extra ones are mirrored here.
void TimedChannel::mirror_extra_queries(QueryCount before) {
  for (QueryCount n = inner_->queries_used() - before; n > 1; --n)
    count_extra_query();
}

void TimedChannel::do_announce(const group::BinAssignment& a) {
  ++totals_->announces;
  const std::uint64_t t0 = now_ns();
  inner_->announce(a);
  close(SpanName::kAnnounce, t0, &totals_->announce_ns);
}

group::BinQueryResult TimedChannel::do_query_bin(const group::BinAssignment& a,
                                                 std::size_t idx) {
  const QueryCount before = inner_->queries_used();
  const std::uint64_t t0 = now_ns();
  const auto r = inner_->query_bin(a, idx);
  close(SpanName::kQuery, t0, &totals_->query_ns);
  mirror_extra_queries(before);
  return r;
}

group::BinQueryResult TimedChannel::do_query_set(
    std::span<const NodeId> nodes) {
  const QueryCount before = inner_->queries_used();
  const std::uint64_t t0 = now_ns();
  const auto r = inner_->query_set(nodes);
  close(SpanName::kQuery, t0, &totals_->query_ns);
  mirror_extra_queries(before);
  return r;
}

// The oracle hooks are the exact tier answering "how many positives in this
// bin" for the engine's ordering pass: group-layer work, timed with queries
// but without spans of their own (they are too short to be worth a span).
std::optional<std::size_t> TimedChannel::oracle_positive_count(
    std::span<const NodeId> nodes) const {
  const std::uint64_t t0 = now_ns();
  const auto r = inner_->oracle_positive_count(nodes);
  totals_->query_ns += now_ns() - t0;
  return r;
}

std::optional<std::size_t> TimedChannel::oracle_positive_count(
    const group::BinAssignment& a, std::size_t idx) const {
  const std::uint64_t t0 = now_ns();
  const auto r = inner_->oracle_positive_count(a, idx);
  totals_->query_ns += now_ns() - t0;
  return r;
}

const std::uint32_t* TimedChannel::oracle_bin_counts(
    const group::BinAssignment& a) const {
  const std::uint64_t t0 = now_ns();
  const auto* r = inner_->oracle_bin_counts(a);
  totals_->query_ns += now_ns() - t0;
  return r;
}

void layer_metrics(Result& r, const LayerTotals& t, std::size_t threads,
                   double wall_s, double traced_rate, double untraced_rate) {
  const double sessions = std::max<double>(1.0, static_cast<double>(t.sessions));
  const double session_ns = std::max<double>(1.0, static_cast<double>(t.session_ns));
  const auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-3 / sessions;
  };
  const double channel_ns = static_cast<double>(t.announce_ns + t.query_ns);
  auto& m = r.metrics;
  m["core.engine_self_us"] =
      std::max(0.0, static_cast<double>(t.engine_ns) - channel_ns) * 1e-3 /
      sessions;
  m["group.announce_us"] = us(t.announce_ns);
  m["group.query_us"] = us(t.query_ns);
  m["group.setup_us"] = us(t.setup_ns);
  m["group.setup_share"] = static_cast<double>(t.setup_ns) / session_ns;
  m["trace.unattributed_frac"] =
      1.0 - static_cast<double>(t.setup_ns + t.engine_ns) / session_ns;
  r.check(m["trace.unattributed_frac"] <= 0.1,
          "layer spans cover less than 90% of traced session time");
  m["common.pool.busy_frac"] =
      static_cast<double>(t.session_ns) * 1e-9 /
      (static_cast<double>(threads) * std::max(wall_s, 1e-9));
  m["trace.overhead_frac"] =
      untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0;
  m["core.rounds_per_session"] = static_cast<double>(t.rounds) / sessions;
  m["group.announces_per_session"] = static_cast<double>(t.announces) / sessions;
  m["core.retries_per_session"] = static_cast<double>(t.retries) / sessions;
  m["group.repolls_per_session"] = static_cast<double>(t.repolls) / sessions;
  m["core.useful_query_frac"] =
      t.queries == 0 ? 1.0
                     : static_cast<double>(t.queries - t.retries - t.repolls) /
                           static_cast<double>(t.queries);
  m["group.airtime_ms_per_session"] = t.airtime_ms / sessions;
  m["group.sim_s_per_host_s"] = channel_ns > 0.0 ? t.airtime_ms * 1e6 / channel_ns : 0.0;
  m["core.wrong_frac"] = static_cast<double>(t.wrong) / sessions;
  // The service layer is absent from the simulated workloads; tcastd_mix
  // sets these itself.
  for (const char* name :
       {"service.p50_ms_at_2k", "service.p99_ms_at_2k", "service.failed_frac",
        "service.server_us_p50", "service.server_us_p99",
        "service.transport_us_p50", "core.engine_us_p50",
        "service.queue_wait_us_p50", "count.census_server_us_p50",
        "service.load_server_us_p50", "service.plan_hit_frac",
        "service.rejected_frac", "service.shed_frac",
        "bench.generator_lag_ms_p99"})
    m.emplace(name, 0.0);
  r.info["trace.sessions"] = static_cast<double>(t.sessions);
}

}  // namespace tcast::e2e
