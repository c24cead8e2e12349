#include "service/shard.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "conformance/checked_channel.hpp"
#include "core/abns.hpp"
#include "core/counting.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast::service {
namespace {

bool is_abns_family(std::string_view algo) {
  return algo == "abns:t" || algo == "abns:2t";
}

/// Populations larger than this are rejected kInvalidArgument.
constexpr std::size_t kMaxPopulation = 1 << 16;

/// The absolute deadline of a query admitted at `now`: none when the
/// request sets none, or when now + deadline_ms would pass kNoDeadline (in
/// TimeUs arithmetic it would wrap around into the past).
TimeUs absolute_deadline(TimeUs now, std::uint64_t deadline_ms) {
  if (deadline_ms == 0 || deadline_ms > (kNoDeadline - now) / 1000)
    return kNoDeadline;
  return now + deadline_ms * 1000;
}

}  // namespace

Shard::Shard(std::size_t index, ShardConfig cfg)
    : index_(index), cfg_(std::move(cfg)) {}

Shard::~Shard() { stop_drain_thread(); }

void Shard::submit(Request req, Callback cb) {
  const TimeUs now = cfg_.clock->now_us();
  Response reject;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_.load(std::memory_order_acquire)) {
      reject.status = StatusCode::kShuttingDown;
      rejected = true;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      ++rejected_overload_;
      reject.status = StatusCode::kOverloaded;
      reject.retry_after_ms = retry_after_ms_locked(queue_.size());
      rejected = true;
    } else {
      ++admitted_;
      Job job;
      job.req = std::move(req);
      job.cb = std::move(cb);
      job.admit_us = now;
      job.deadline_us = absolute_deadline(now, job.req.deadline_ms);
      queue_.push_back(std::move(job));
    }
  }
  if (rejected) {
    reject.shard = index_;
    cb(reject);
  } else {
    work_cv_.notify_one();
  }
}

void Shard::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  for (std::size_t i = 0; i < cfg_.batch_max; ++i) {
    Job job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    Response resp;
    if (shutting_down_.load(std::memory_order_acquire)) {
      resp.status = StatusCode::kShuttingDown;
      resp.message = "service stopping; queued request flushed";
    } else if (killed_.load(std::memory_order_acquire)) {
      resp.status = StatusCode::kShardDown;
      resp.message = "shard killed while request was queued";
      resp.retry_after_ms = 1;
    } else if (job.req.kind == RequestKind::kQuery &&
               cfg_.clock->now_us() >= job.deadline_us) {
      // Load shedding: the deadline expired in the queue; resolving it now
      // without engine work frees capacity for requests that can still win.
      resp.status = StatusCode::kDeadlineExceeded;
      resp.message = "deadline expired while queued";
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++shed_deadline_;
      }
    } else {
      resp = execute(job);
    }
    finish(job, std::move(resp));
  }
}

void Shard::start_drain_thread() {
  if (drain_thread_.joinable()) return;
  drain_thread_ = std::thread([this] { drain_loop(); });
}

void Shard::stop_drain_thread() {
  if (!drain_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drain_stop_ = true;
  }
  work_cv_.notify_one();
  drain_thread_.join();
  drain_stop_ = false;
}

void Shard::drain_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return drain_stop_ || !queue_.empty(); });
    if (drain_stop_) return;
    lock.unlock();
    drain();
    lock.lock();
  }
}

void Shard::kill() { killed_.store(true, std::memory_order_release); }

void Shard::reboot() { killed_.store(false, std::memory_order_release); }

void Shard::shutdown() {
  shutting_down_.store(true, std::memory_order_release);
}

std::size_t Shard::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ShardStats Shard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardStats s;
  s.index = index_;
  s.queue_depth = queue_.size();
  s.killed = killed_.load(std::memory_order_acquire);
  s.admitted = admitted_;
  s.rejected_overload = rejected_overload_;
  s.shed_deadline = shed_deadline_;
  s.cancelled_deadline = cancelled_deadline_;
  s.cancelled_kill = cancelled_kill_;
  s.completed_exact = completed_exact_;
  s.completed_approx = completed_approx_;
  s.errors = errors_;
  s.conformance_violations = conformance_violations_;
  s.populations = populations_count_;
  s.ewma_service_us = ewma_service_us_;
  s.latency = latency_.summarize();
  return s;
}

void Shard::finish(const Job& job, Response resp) {
  const TimeUs now = cfg_.clock->now_us();
  resp.shard = index_;
  resp.latency_us = now >= job.admit_us ? now - job.admit_us : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // finish() runs under the drain lock, so it may read drain-path state.
    populations_count_ = populations_.size();
    switch (resp.status) {
      case StatusCode::kOk:
        if (job.req.kind == RequestKind::kQuery) {
          if (resp.mode == AnswerMode::kApproximate) {
            ++completed_approx_;
          } else {
            ++completed_exact_;
          }
          latency_.record(resp.latency_us);
          // EWMA of end-to-end service time sizes the retry-after hint.
          const double sample = static_cast<double>(resp.latency_us);
          ewma_service_us_ = ewma_service_us_ == 0.0
                                 ? sample
                                 : 0.8 * ewma_service_us_ + 0.2 * sample;
        }
        break;
      case StatusCode::kDeadlineExceeded:
        // Queue sheds were already counted at the shed site; anything else
        // arriving here tripped mid-run.
        if (resp.message != "deadline expired while queued")
          ++cancelled_deadline_;
        break;
      case StatusCode::kShardDown:
        ++cancelled_kill_;
        break;
      case StatusCode::kOverloaded:
      case StatusCode::kShuttingDown:
      case StatusCode::kNotFound:
      case StatusCode::kInvalidArgument:
        ++errors_;
        break;
    }
  }
  job.cb(resp);
}

std::uint64_t Shard::retry_after_ms_locked(std::size_t depth) const {
  // Expected wait ≈ backlog × EWMA service time; floor at 1ms so a hint is
  // always a real backoff.
  const double est_ms =
      static_cast<double>(depth) * ewma_service_us_ / 1000.0;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(est_ms));
}

Response Shard::execute(const Job& job) {
  switch (job.req.kind) {
    case RequestKind::kLoad:
      return do_load(job.req);
    case RequestKind::kDrop:
      return do_drop(job.req);
    case RequestKind::kQuery:
      return do_query(job);
    default: {
      Response resp;
      resp.status = StatusCode::kInvalidArgument;
      resp.message = "request kind not handled by shards";
      return resp;
    }
  }
}

Response Shard::do_load(const Request& req) {
  Response resp;
  if (req.n == 0 || req.n > kMaxPopulation || req.x > req.n) {
    resp.status = StatusCode::kInvalidArgument;
    resp.message = "load requires 0 < n <= " +
                   std::to_string(kMaxPopulation) + " and x <= n";
    return resp;
  }
  group::PacketChannel::Config pcfg;
  pcfg.model = req.model;
  pcfg.seed = req.seed;
  // An engine may use up to n bins, and a packet world can address only so
  // many (backcast: the radios' ephemeral address block).
  const std::size_t max_bins = group::PacketChannel::max_bins(pcfg);
  if (req.tier == BackendTier::kPacket && req.n > max_bins) {
    resp.status = StatusCode::kInvalidArgument;
    resp.message = "packet-tier load of this model requires n <= " +
                   std::to_string(max_bins);
    return resp;
  }

  Population pop;
  pop.n = req.n;
  pop.x = req.x;
  pop.tier = req.tier;
  pop.model = req.model;
  pop.seed = req.seed;
  pop.nodes.resize(req.n);
  for (std::size_t i = 0; i < req.n; ++i)
    pop.nodes[i] = static_cast<NodeId>(i);

  // Stream split: 0 = ground-truth draw, 1 = channel-internal randomness
  // (capture draws), 2 = per-query algorithm randomness. One root seed per
  // population, and no state shared between populations, keep every served
  // answer a pure function of (seed, this population's query sequence).
  RngStream truth_rng(req.seed, 0);
  pop.channel_rng = std::make_unique<RngStream>(req.seed, 1);
  pop.query_rng = std::make_unique<RngStream>(req.seed, 2);

  std::vector<bool> positive(req.n, false);
  for (const NodeId id : truth_rng.sample_subset(req.n, req.x))
    positive[static_cast<std::size_t>(id)] = true;

  if (req.tier == BackendTier::kExact) {
    group::ExactChannel::Config ecfg;
    ecfg.model = req.model;
    pop.channel = std::make_unique<group::ExactChannel>(
        std::move(positive), *pop.channel_rng, std::move(ecfg));
    pop.oracle_capable = true;
  } else {
    pop.channel = std::make_unique<group::PacketChannel>(std::move(positive),
                                                         std::move(pcfg));
    pop.oracle_capable = false;
  }

  populations_.insert_or_assign(req.population, std::move(pop));
  resp.status = StatusCode::kOk;
  resp.message = "loaded " + req.population;
  return resp;
}

Response Shard::do_drop(const Request& req) {
  Response resp;
  if (populations_.erase(req.population) == 0) {
    resp.status = StatusCode::kNotFound;
    resp.message = "unknown population " + req.population;
    return resp;
  }
  resp.status = StatusCode::kOk;
  resp.message = "dropped " + req.population;
  return resp;
}

Response Shard::do_query(const Job& job) {
  Response resp;
  const auto it = populations_.find(job.req.population);
  if (it == populations_.end()) {
    resp.status = StatusCode::kNotFound;
    resp.message = "unknown population " + job.req.population;
    return resp;
  }
  Population& pop = it->second;

  if (job.req.t == 0 || job.req.t > pop.n) {
    resp.status = StatusCode::kInvalidArgument;
    resp.message = "threshold must satisfy 1 <= t <= n";
    return resp;
  }

  const bool approx_path = job.req.approx == ApproxMode::kRequire;

  if (!approx_path) {
    const auto* spec = core::find_algorithm(job.req.algorithm);
    if (spec == nullptr || spec->needs_oracle) {
      resp.status = StatusCode::kInvalidArgument;
      resp.message = spec == nullptr
                         ? "unknown algorithm " + job.req.algorithm
                         : "oracle baselines are not served";
      return resp;
    }
  }

  QueryCancelToken token(*cfg_.clock, job.deadline_us, killed_);
  if (token.cancelled()) return cancel_response();

  return approx_path ? run_approx(pop, job, token)
                     : run_exact(pop, job, token);
}

Response Shard::run_exact(Population& pop, const Job& job,
                          const core::CancelToken& token) {
  const Request& req = job.req;
  core::EngineOptions eopts;
  eopts.cancel = &token;

  const bool checked = cfg_.checked && pop.oracle_capable;
  std::optional<conformance::CheckedChannel> guard;
  if (checked) guard.emplace(*pop.channel, std::span<const NodeId>(pop.nodes));
  group::QueryChannel& ch = checked
                                ? static_cast<group::QueryChannel&>(*guard)
                                : *pop.channel;

  core::ThresholdOutcome out;
  if (is_abns_family(req.algorithm)) {
    // Warm start (the paper's p0 lever, Fig. 5): this population's last
    // converged estimate, else the registry's static p0 (t or 2t).
    double p0 = static_cast<double>(
        req.algorithm == "abns:t" ? req.t : 2 * req.t);
    if (pop.abns_p_estimate > 0.0) p0 = pop.abns_p_estimate;
    core::AbnsPolicy policy({p0});
    core::RoundEngine engine(ch, *pop.query_rng, eopts);
    out = engine.run(pop.nodes, req.t, policy);
    const double p_estimate = policy.current_estimate();
    if (!out.cancelled && p_estimate > 0.0) pop.abns_p_estimate = p_estimate;
  } else {
    const auto* spec = core::find_algorithm(req.algorithm);
    out = spec->run(ch, pop.nodes, req.t, *pop.query_rng, eopts);
  }

  if (out.cancelled) {
    Response resp = cancel_response();
    resp.queries = out.queries;
    return resp;
  }

  if (checked) {
    guard->check_outcome(req.t, out);
    if (!guard->ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      conformance_violations_ += guard->violations().size();
    }
  }

  Response resp;
  resp.status = StatusCode::kOk;
  resp.decision = out.decision;
  resp.mode = AnswerMode::kExact;
  resp.queries = out.queries;
  return resp;
}

Response Shard::run_approx(Population& pop, const Job& job,
                           const core::CancelToken& token) {
  core::CountOptions copts;
  copts.engine.cancel = &token;

  const bool checked = cfg_.checked && pop.oracle_capable;
  std::optional<conformance::CheckedChannel> guard;
  if (checked) guard.emplace(*pop.channel, std::span<const NodeId>(pop.nodes));
  group::QueryChannel& ch = checked
                                ? static_cast<group::QueryChannel&>(*guard)
                                : *pop.channel;

  const core::CountOutcome out =
      core::run_newport_zheng_count(ch, pop.nodes, *pop.query_rng, copts);

  if (out.cancelled) {
    Response resp = cancel_response();
    resp.queries = out.queries;
    return resp;
  }

  if (checked) {
    guard->check_count_outcome(out);
    if (!guard->ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      conformance_violations_ += guard->violations().size();
    }
  }

  // The honest approximate answer: the count estimate versus t, tagged
  // with the estimator's claimed band — never passed off as an exact
  // verdict.
  Response resp;
  resp.status = StatusCode::kOk;
  resp.decision =
      out.estimate >= static_cast<double>(job.req.t);
  resp.mode = out.exact ? AnswerMode::kExact : AnswerMode::kApproximate;
  resp.estimate = out.estimate;
  resp.epsilon = out.epsilon;
  resp.confidence = out.confidence;
  resp.queries = out.queries;
  return resp;
}

Response Shard::cancel_response() const {
  Response resp;
  if (killed_.load(std::memory_order_acquire)) {
    resp.status = StatusCode::kShardDown;
    resp.message = "shard killed mid-query";
    resp.retry_after_ms = 1;
  } else {
    resp.status = StatusCode::kDeadlineExceeded;
    resp.message = "deadline expired mid-query";
  }
  return resp;
}

}  // namespace tcast::service
