#include "sim/parallel/kernel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcast::sim::parallel {

ParallelKernel::ParallelKernel(KernelConfig cfg) : cfg_(cfg) {}

ParallelKernel::~ParallelKernel() = default;

LogicalProcess& ParallelKernel::add_lp(std::uint64_t seed,
                                       std::uint64_t stream) {
  lps_.emplace_back(
      new LogicalProcess(seed, stream, static_cast<LpRank>(lps_.size())));
  return *lps_.back();
}

void ParallelKernel::connect(LogicalProcess& src, LogicalProcess& dst,
                             SimTime lookahead) {
  TCAST_CHECK_MSG(lookahead >= 1,
                  "conservative links need lookahead >= 1 tick");
  TCAST_CHECK(&src != &dst);
  links_.push_back(Link{src.rank(), dst.rank(), lookahead});
  dst.in_links_.emplace_back(src.rank(), lookahead);
}

void ParallelKernel::post(LogicalProcess& src, LogicalProcess& dst,
                          SimTime time, EventPriority priority, EventFn fn) {
  // The lookahead promise is per link; find it (few links per LP).
  SimTime lookahead = -1;
  for (const auto& [s, l] : dst.in_links_)
    if (s == src.rank()) {
      lookahead = l;
      break;
    }
  TCAST_CHECK_MSG(lookahead >= 1, "post without a connected link");
  TCAST_CHECK_MSG(time >= src.sim().now() + lookahead,
                  "post violates the link's lookahead promise");
  src.outbox_.push_back(LogicalProcess::Message{
      time, priority, src.rank(), src.next_out_seq_++, dst.rank(),
      std::move(fn)});
}

void ParallelKernel::compute_horizons(SimTime deadline) {
  for (auto& lp : lps_) {
    lp->next_ = lp->sim_.pending() ? lp->sim_.next_event_time()
                                   : kHorizonInf;
    lp->eit_ = kHorizonInf;
  }
  // Relax earliest-input-times over the link graph. T(s) = min(next_s,
  // EIT_s) is a lower bound on s's next execution time; every pass
  // propagates one more hop, so lps_.size() passes reach a fixed point on
  // any simple dependency chain (cycles converge earlier: EIT values only
  // decrease and are bounded below by min(next) + min lookahead).
  for (std::size_t pass = 0; pass < lps_.size(); ++pass) {
    bool changed = false;
    ++stats_.relax_passes;
    for (const Link& link : links_) {
      LogicalProcess& s = *lps_[link.src];
      const SimTime t_src = std::min(s.next_, s.eit_);
      if (t_src >= kHorizonInf) continue;
      const SimTime cand = t_src + link.lookahead;
      LogicalProcess& d = *lps_[link.dst];
      if (cand < d.eit_) {
        d.eit_ = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  const SimTime cap =
      deadline >= kHorizonInf ? kHorizonInf : deadline + 1;
  for (auto& lp : lps_) lp->horizon_ = std::min(lp->eit_, cap);
}

void ParallelKernel::drain_lps() {
  const auto body = [](void* raw, std::size_t i) {
    LogicalProcess& lp = *static_cast<ParallelKernel*>(raw)->lps_[i];
    lp.executed_ = lp.sim_.run_before(lp.horizon_);
  };
  if (cfg_.pool == nullptr || lps_.size() <= 1) {
    for (std::size_t i = 0; i < lps_.size(); ++i) body(this, i);
  } else {
    cfg_.pool->run_batch(lps_.size(), body, this);
  }
}

std::size_t ParallelKernel::route_outboxes() {
  // Gather, then deliver per destination in (time, priority, src rank, src
  // seq) order — the deterministic extension of the event queue's
  // (time, priority, seq) tie-break with a stable LP rank. Insertion order
  // fixes the destination queue's local sequence numbers, so the merged
  // schedule is independent of which worker drained which LP.
  route_scratch_.clear();
  for (auto& lp : lps_) {
    for (auto& m : lp->outbox_) route_scratch_.push_back(std::move(m));
    lp->outbox_.clear();
  }
  if (route_scratch_.empty()) return 0;
  std::sort(route_scratch_.begin(), route_scratch_.end(),
            [](const LogicalProcess::Message& a,
               const LogicalProcess::Message& b) {
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.time != b.time) return a.time < b.time;
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto& m : route_scratch_) {
    Simulator& dst = lps_[m.dst]->sim_;
    TCAST_CHECK_MSG(m.time >= dst.now(),
                    "cross-LP event arrived in the destination's past");
    dst.schedule_at(m.time, m.priority, std::move(m.fn));
  }
  const std::size_t routed = route_scratch_.size();
  route_scratch_.clear();
  return routed;
}

std::size_t ParallelKernel::step_window(SimTime deadline) {
  compute_horizons(deadline);
  bool runnable = false;
  for (const auto& lp : lps_)
    if (lp->next_ < lp->horizon_) {
      runnable = true;
      break;
    }
  if (!runnable) return 0;

  ++stats_.windows;
  drain_lps();

  std::size_t executed = 0;
  std::size_t active_lps = 0;
  for (const auto& lp : lps_) {
    executed += lp->executed_;
    if (lp->executed_ > 0) ++active_lps;
  }
  stats_.events += executed;
  if (active_lps <= 1 && lps_.size() > 1) ++stats_.stalled_windows;
  stats_.messages += route_outboxes();
  // With every lookahead ≥ 1 the globally earliest LP always clears its
  // EIT, so a runnable window that executed nothing is a horizon bug.
  TCAST_CHECK_MSG(executed > 0, "conservative window made no progress");
  return executed;
}

std::size_t ParallelKernel::run() { return run_until(kHorizonInf); }

std::size_t ParallelKernel::run_until(SimTime deadline) {
  std::size_t total = 0;
  for (;;) {
    const std::size_t executed = step_window(deadline);
    if (executed == 0) break;
    total += executed;
  }
  return total;
}

}  // namespace tcast::sim::parallel
