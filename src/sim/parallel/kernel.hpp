// Conservative (Chandy–Misra–Bryant-style) parallel discrete-event kernel.
//
// A world is partitioned into *logical processes* (LPs): one LP per mote
// cluster / spatial cell, each owning an LP-local `sim::Simulator` (event
// queue, clock, model RNG). Cross-LP interactions — radio broadcasts
// bleeding into a neighbouring cell, a control plane crashing a mote —
// travel as timestamped channel events (`post`) over declared links, and
// every link carries a *lookahead*: a static lower bound on the delay
// between an LP executing an event and the earliest timestamp it may hand
// a neighbour. For the packet tier that bound is physical: a mote's radio
// cannot affect another cell sooner than the propagation + slot boundary
// delay of the radio slot model.
//
// Synchronization is the safe-time barrier variant of conservative DES
// (the null-message information, computed centrally per window instead of
// flooded over links):
//
//   1. every LP reports its next local event time;
//   2. the kernel relaxes per-LP *earliest input times* (EIT) over the
//      link graph: EIT(d) = min over in-links (s→d) of
//      min(next(s), EIT(s)) + lookahead(s→d);
//   3. each LP drains every event strictly below its EIT in parallel
//      (ThreadPool::run_batch; the calling thread participates), buffering
//      outbound messages in an LP-local outbox;
//   4. barrier: outboxes are routed — each destination's batch is sorted
//      by (time, priority, source LP rank, source sequence) and inserted
//      into the destination's event queue in that order.
//
// Determinism: window boundaries are a pure function of LP state (never of
// thread timing), LP drains touch only LP-local state, and the sorted
// barrier insertion extends the event queue's (time, priority, seq)
// tie-break with a stable LP rank — so a world is bit-reproducible under a
// fixed seed regardless of worker count, including worker count one (the
// inline path used when no pool is supplied). With all lookaheads ≥ 1 the
// LP holding the globally earliest event always clears its own EIT, so
// every window makes progress and no deadlock avoidance traffic is needed.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "sim/simulator.hpp"

namespace tcast::sim::parallel {

/// Stable LP identity used in the cross-LP tie-break. Assigned densely in
/// add_lp order.
using LpRank = std::uint32_t;

/// "No event / unbounded" sentinel, kept far from overflow so adding a
/// lookahead to it stays representable.
inline constexpr SimTime kHorizonInf =
    std::numeric_limits<SimTime>::max() / 4;

struct KernelConfig {
  /// Worker pool the window drains fan out over. nullptr = run every LP
  /// inline on the calling thread (the sequential differential reference;
  /// bit-identical to any pool by construction).
  ThreadPool* pool = nullptr;
};

struct KernelStats {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  /// Windows in which at most one LP executed work — where conservative
  /// lookahead serialized the world (docs/PERFORMANCE.md reports this for
  /// the cell worlds).
  std::uint64_t stalled_windows = 0;
  std::uint64_t relax_passes = 0;
};

class ParallelKernel;

/// One logical process: an LP-local simulator plus the kernel-facing
/// bookkeeping (rank, link set, outbox). Create via ParallelKernel::add_lp
/// (kernel-owned simulator, LP-local RNG stream).
class LogicalProcess {
 public:
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  LpRank rank() const { return rank_; }

  LogicalProcess(const LogicalProcess&) = delete;
  LogicalProcess& operator=(const LogicalProcess&) = delete;

 private:
  friend class ParallelKernel;

  struct Message {
    SimTime time = 0;
    EventPriority priority = 0;
    LpRank src = 0;
    std::uint64_t seq = 0;  ///< per-source outbound sequence
    LpRank dst = 0;
    EventFn fn;
  };

  LogicalProcess(std::uint64_t seed, std::uint64_t stream, LpRank rank)
      : sim_(seed, stream), rank_(rank) {}

  Simulator sim_;
  LpRank rank_;
  std::vector<std::pair<LpRank, SimTime>> in_links_;  ///< (src, lookahead)
  std::vector<Message> outbox_;
  std::uint64_t next_out_seq_ = 1;
  // Per-window scratch (written single-threaded between drains, read by the
  // LP's own drain only).
  SimTime next_ = kHorizonInf;
  SimTime eit_ = kHorizonInf;
  SimTime horizon_ = kHorizonInf;
  std::size_t executed_ = 0;
};

class ParallelKernel {
 public:
  explicit ParallelKernel(KernelConfig cfg = {});
  ~ParallelKernel();

  ParallelKernel(const ParallelKernel&) = delete;
  ParallelKernel& operator=(const ParallelKernel&) = delete;

  /// Creates an LP with a kernel-owned Simulator seeded (seed, stream) —
  /// the LP-local RNG stream. Stable address for the kernel's lifetime.
  LogicalProcess& add_lp(std::uint64_t seed, std::uint64_t stream);

  std::size_t lp_count() const { return lps_.size(); }
  LogicalProcess& lp(std::size_t i) { return *lps_[i]; }

  /// Declares that `src` may send events to `dst`, never sooner than
  /// `lookahead` after the sending event executes. lookahead ≥ 1: a
  /// zero-lookahead link would serialize the pair (and the conservative
  /// horizon could never separate them).
  void connect(LogicalProcess& src, LogicalProcess& dst, SimTime lookahead);

  /// Posts a cross-LP timestamped event: `fn` runs on `dst`'s simulator at
  /// `time`. Must respect the link's lookahead (time ≥ src.sim().now() +
  /// lookahead); checked. Callable from inside an executing event of `src`
  /// (the common case — LP drains run concurrently, but each outbox is
  /// LP-local) or from the driver thread before/between runs.
  void post(LogicalProcess& src, LogicalProcess& dst, SimTime time,
            EventPriority priority, EventFn fn);

  /// Runs to global quiescence (every queue empty, every message routed).
  /// Returns events executed.
  std::size_t run();

  /// Runs every event with time ≤ deadline. Perpetual background processes
  /// (beacon traffic, interference) keep queues non-empty forever; this is
  /// the bounded drive for such worlds.
  std::size_t run_until(SimTime deadline);

  const KernelStats& stats() const { return stats_; }

 private:
  struct Link {
    LpRank src;
    LpRank dst;
    SimTime lookahead;
  };

  /// One conservative window: compute horizons, drain, route. Returns
  /// events executed (0 = nothing runnable at or below `deadline`).
  std::size_t step_window(SimTime deadline);
  void compute_horizons(SimTime deadline);
  void drain_lps();
  std::size_t route_outboxes();

  KernelConfig cfg_;
  std::vector<std::unique_ptr<LogicalProcess>> lps_;
  std::vector<Link> links_;
  KernelStats stats_;
  /// Routing scratch, reused across windows.
  std::vector<LogicalProcess::Message> route_scratch_;
};

}  // namespace tcast::sim::parallel
