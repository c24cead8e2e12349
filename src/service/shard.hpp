// A tcastd shard: single-owner executor for a slice of the population
// namespace, with bounded admission, deadline shedding and mid-run
// cancellation.
//
// Concurrency contract:
//   * submit() / kill() / reboot() / shutdown() / stats() are thread-safe
//     (server threads, chaos controller);
//   * drain() — where populations and their RNG streams live — holds the
//     shard's drain lock, so one thread at a time drains it: the shard's
//     own drain thread, or pump()/drain_all() on the caller's thread. The
//     execution path needs no other locking around engine runs.
//
// A served answer depends only on its own population: its seed and the
// queries it has served before. Nothing one population does changes
// another's answers, and a query is answered approximately only when it
// asks to be (approx=require), however deep the queue.
//
// The overload ladder, in order of escalation (docs/SERVICE.md):
//   1. admission control — the queue is bounded; a full queue rejects with
//      kOverloaded + a retry-after hint sized from the EWMA service time;
//   2. deadline shedding — a query whose deadline expired while queued is
//      resolved kDeadlineExceeded at dequeue, before any engine work;
//   3. mid-run cancellation — a shard kill trips the engine's CancelToken
//      at the next poll between queries, a deadline within 32 polls; the
//      outcome maps to a typed error, never a fabricated verdict.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/round_engine.hpp"
#include "group/query_channel.hpp"
#include "perf/latency.hpp"
#include "service/clock.hpp"
#include "service/protocol.hpp"

namespace tcast::service {

/// Deadline + shard-kill cancel token handed to the engine for one query.
/// Every poll loads the kill flag, so a kill trips at the next poll. The
/// clock is read on the first poll and then on every kClockStride-th: the
/// engine polls before every query, and a clock read on every poll took
/// about a third of an exact-tier request's time. So a deadline trips at most
/// kClockStride - 1 polls later than a clock read on every poll would trip
/// it, never before it passes, and then stays tripped. One thread polls a
/// token (the one running its query).
class QueryCancelToken final : public core::CancelToken {
 public:
  static constexpr std::uint32_t kClockStride = 32;

  QueryCancelToken(const Clock& clock, TimeUs deadline_us,
                   const std::atomic<bool>& killed)
      : clock_(&clock), deadline_us_(deadline_us), killed_(&killed) {}

  bool cancelled() const override {
    if (killed_->load(std::memory_order_acquire)) return true;
    if (expired_) return true;
    if (polls_++ % kClockStride != 0) return false;
    expired_ = clock_->now_us() >= deadline_us_;
    return expired_;
  }

 private:
  const Clock* clock_;
  TimeUs deadline_us_;
  const std::atomic<bool>* killed_;
  mutable std::uint32_t polls_ = 0;
  mutable bool expired_ = false;
};

struct ShardConfig {
  /// Bounded admission queue; a full queue rejects with kOverloaded.
  std::size_t queue_capacity = 64;
  /// Max jobs executed per drain() call: one pump() step, and how many
  /// jobs the drain thread runs before it releases the drain lock and
  /// checks for stop.
  std::size_t batch_max = 8;
  /// Run exact-tier queries through a conformance CheckedChannel and count
  /// violations (the service-level safety net; cheap relative to a run).
  bool checked = false;
  /// Time source; borrowed, must outlive the shard.
  const Clock* clock = &RealClock::instance();
};

struct ShardStats {
  std::size_t index = 0;
  std::size_t queue_depth = 0;
  bool killed = false;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t shed_deadline = 0;       ///< expired while queued
  std::uint64_t cancelled_deadline = 0;  ///< expired mid-run
  std::uint64_t cancelled_kill = 0;
  std::uint64_t completed_exact = 0;
  std::uint64_t completed_approx = 0;
  std::uint64_t errors = 0;  ///< kNotFound/kInvalidArgument/...
  std::uint64_t conformance_violations = 0;
  std::uint64_t populations = 0;
  double ewma_service_us = 0.0;
  perf::PercentileSummary latency;  ///< end-to-end, admission → resolution
};

class Shard {
 public:
  using Callback = std::function<void(const Response&)>;

  /// `index` is this shard's place in the service; every response and
  /// stats() report it.
  Shard(std::size_t index, ShardConfig cfg);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Admits a request or resolves it immediately (kOverloaded when the
  /// queue is full, kShuttingDown after shutdown()). Every submitted
  /// request's callback is invoked exactly once, here or from drain().
  /// Admitting a job wakes the drain thread.
  void submit(Request req, Callback cb);

  /// Executes up to batch_max queued jobs. A killed shard still drains —
  /// flushing its queue as kShardDown — so no request ever hangs.
  /// Holds the drain lock throughout (see file comment).
  void drain();

  /// The drain thread sleeps until submit() admits a job, then calls
  /// drain() until the queue is empty. stop_drain_thread() joins it after
  /// its current drain() call; jobs still queued wait for a later drain().
  void start_drain_thread();
  void stop_drain_thread();

  /// Chaos hooks. kill() trips the in-flight cancel token and turns the
  /// queue into kShardDown flushes; reboot() restores service (populations
  /// survive — the model is a warm process restart, and the robustness
  /// contract under test is typed errors + recovery, not durability).
  void kill();
  void reboot();
  bool killed() const { return killed_.load(std::memory_order_acquire); }

  /// Rejects new work and makes the next drain() flush the queue with
  /// kShuttingDown.
  void shutdown();

  std::size_t queue_depth() const;
  ShardStats stats() const;

 private:
  struct Job {
    Request req;
    Callback cb;
    TimeUs admit_us = 0;
    TimeUs deadline_us = kNoDeadline;
  };

  /// A resident population: ground truth + channel + RNG streams. All
  /// access is from the drain path.
  struct Population {
    std::size_t n = 0;
    std::size_t x = 0;
    BackendTier tier = BackendTier::kExact;
    group::CollisionModel model = group::CollisionModel::kOnePlus;
    std::uint64_t seed = 1;
    std::vector<NodeId> nodes;  ///< [0, n)
    /// Channel-internal randomness (capture draws); must outlive channel.
    std::unique_ptr<RngStream> channel_rng;
    /// Algorithm-run randomness, advanced per query.
    std::unique_ptr<RngStream> query_rng;
    std::unique_ptr<group::QueryChannel> channel;
    bool oracle_capable = false;  ///< exact tier: CheckedChannel eligible
    /// ABNS warm start: the estimate the last ABNS run on this population
    /// converged to (0 until one has run).
    double abns_p_estimate = 0.0;
  };

  void drain_loop();
  void finish(const Job& job, Response resp);
  std::uint64_t retry_after_ms_locked(std::size_t depth) const;

  Response execute(const Job& job);
  Response do_load(const Request& req);
  Response do_drop(const Request& req);
  Response do_query(const Job& job);
  Response run_exact(Population& pop, const Job& job,
                     const core::CancelToken& token);
  Response run_approx(Population& pop, const Job& job,
                      const core::CancelToken& token);
  Response cancel_response() const;

  std::size_t index_;
  ShardConfig cfg_;
  std::atomic<bool> killed_{false};
  std::atomic<bool> shutting_down_{false};

  mutable std::mutex mu_;  ///< queue + counters + latency recorder
  std::condition_variable work_cv_;  ///< on mu_: job admitted or stop
  bool drain_stop_ = false;          ///< guarded by mu_
  std::deque<Job> queue_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t cancelled_deadline_ = 0;
  std::uint64_t cancelled_kill_ = 0;
  std::uint64_t completed_exact_ = 0;
  std::uint64_t completed_approx_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t conformance_violations_ = 0;
  double ewma_service_us_ = 0.0;
  perf::LatencyRecorder latency_{1 << 14};
  // stats()'s copy of the population count, refreshed by finish().
  std::size_t populations_count_ = 0;

  // Drain-path state, guarded by drain_mu_ (see concurrency contract).
  std::mutex drain_mu_;
  std::unordered_map<std::string, Population> populations_;

  std::thread drain_thread_;
};

}  // namespace tcast::service
