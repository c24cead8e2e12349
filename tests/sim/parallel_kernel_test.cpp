// Unit tests for the conservative parallel kernel (sim/parallel/kernel):
// horizon/EIT behaviour, the post/connect contract, and — the property the
// whole design exists for — bit-identical execution under any worker count.
#include "sim/parallel/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace tcast::sim::parallel {
namespace {

TEST(ParallelKernel, SingleLpRunsToQuiescence) {
  ParallelKernel k;
  LogicalProcess& lp = k.add_lp(/*seed=*/3, /*stream=*/0);
  std::vector<SimTime> fired;
  lp.sim().schedule_at(10, [&] { fired.push_back(10); });
  lp.sim().schedule_at(5, [&] { fired.push_back(5); });
  EXPECT_EQ(k.run(), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(k.stats().events, 2u);
  EXPECT_EQ(k.stats().messages, 0u);
}

TEST(ParallelKernel, RanksAssignedDensely) {
  ParallelKernel k;
  EXPECT_EQ(k.add_lp(1, 0).rank(), 0u);
  EXPECT_EQ(k.add_lp(1, 2).rank(), 1u);
  EXPECT_EQ(k.lp_count(), 2u);
}

TEST(ParallelKernel, CrossLpMessageArrivesAtExactTimestamp) {
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  k.connect(a, b, /*lookahead=*/10);
  SimTime arrival = -1;
  a.sim().schedule_at(5, [&] {
    k.post(a, b, /*time=*/15, /*priority=*/0,
           [&] { arrival = b.sim().now(); });
  });
  k.run();
  EXPECT_EQ(arrival, 15);
  EXPECT_EQ(k.stats().messages, 1u);
}

TEST(ParallelKernel, PingPongCountsRoundTrips) {
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  const SimTime kL = 3;
  k.connect(a, b, kL);
  k.connect(b, a, kL);
  int volleys = 0;
  // Mutually recursive rallies: each side answers until 8 volleys landed.
  std::function<void()> on_a;
  std::function<void()> on_b;
  on_b = [&] {
    ++volleys;
    if (volleys < 8)
      k.post(b, a, b.sim().now() + kL, 0, [&] { on_a(); });
  };
  on_a = [&] {
    ++volleys;
    if (volleys < 8)
      k.post(a, b, a.sim().now() + kL, 0, [&] { on_b(); });
  };
  a.sim().schedule_at(0, [&] { k.post(a, b, kL, 0, [&] { on_b(); }); });
  k.run();
  EXPECT_EQ(volleys, 8);
  // Alternating one-hop messages: the conservative horizon admits exactly
  // one volley per window, so every window is "stalled" (one active LP).
  EXPECT_EQ(k.stats().messages, 8u);
  EXPECT_GE(k.stats().stalled_windows, 7u);
}

TEST(ParallelKernel, UnlinkedLpsDrainInOneWindow) {
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  for (SimTime t = 1; t <= 5; ++t) {
    a.sim().schedule_at(t, [] {});
    b.sim().schedule_at(t * 100, [] {});
  }
  k.run();
  // No links → both EITs are unbounded → both LPs drain fully in window 1.
  EXPECT_EQ(k.stats().windows, 1u);
  EXPECT_EQ(k.stats().events, 10u);
  EXPECT_EQ(k.stats().stalled_windows, 0u);
}

TEST(ParallelKernel, RunUntilStopsAtDeadlineAndKeepsFutureEvents) {
  ParallelKernel k;
  LogicalProcess& lp = k.add_lp(1, 0);
  int fired = 0;
  lp.sim().schedule_at(10, [&] { ++fired; });
  lp.sim().schedule_at(20, [&] { ++fired; });
  lp.sim().schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(k.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(lp.sim().pending());
  EXPECT_EQ(k.run_until(30), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(ParallelKernelDeath, PostBelowLookaheadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  k.connect(a, b, /*lookahead=*/10);
  a.sim().schedule_at(5, [&] {
    k.post(a, b, /*time=*/14, 0, [] {});  // 14 < now(5) + lookahead(10)
  });
  EXPECT_DEATH(k.run(), "lookahead");
}

TEST(ParallelKernelDeath, PostWithoutLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  EXPECT_DEATH(k.post(a, b, 100, 0, [] {}), "");
}

TEST(ParallelKernelDeath, ZeroLookaheadLinkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParallelKernel k;
  LogicalProcess& a = k.add_lp(1, 0);
  LogicalProcess& b = k.add_lp(1, 1);
  EXPECT_DEATH(k.connect(a, b, 0), "");
}

// --- Determinism across worker counts ---------------------------------
//
// A randomized multi-LP world: a ring of LPs, each running a self-
// rescheduling local process that draws jittered gaps from its LP-local
// RNG and occasionally posts to a ring neighbour (timestamp = now + link
// lookahead + jitter). The observable is the exact global execution log
// (lp, time, tag) plus each LP's next raw RNG word — any divergence in
// event order, message routing, or RNG consumption shows up.

struct RingLog {
  std::vector<std::tuple<LpRank, SimTime, int>> entries;
  std::vector<std::uint64_t> rng_words;
};

RingLog run_ring(std::size_t lp_count, std::size_t workers,
                 std::uint64_t seed) {
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  KernelConfig cfg;
  cfg.pool = pool.get();
  ParallelKernel k(cfg);

  const SimTime kL = 7;
  std::vector<LogicalProcess*> lps;
  for (std::size_t i = 0; i < lp_count; ++i)
    lps.push_back(&k.add_lp(seed, i));
  for (std::size_t i = 0; i < lp_count; ++i) {
    LogicalProcess& next = *lps[(i + 1) % lp_count];
    k.connect(*lps[i], next, kL);
  }

  RingLog log;
  std::mutex mu;  // log order is canonicalized below; mutex just for safety
  auto record = [&](LpRank r, SimTime t, int tag) {
    std::lock_guard<std::mutex> hold(mu);
    log.entries.emplace_back(r, t, tag);
  };

  const SimTime kEnd = 500;
  std::function<void(std::size_t)> tick = [&](std::size_t i) {
    LogicalProcess& lp = *lps[i];
    Simulator& s = lp.sim();
    record(lp.rank(), s.now(), 0);
    // ~1 in 4 ticks also pokes the ring neighbour.
    if (s.rng().uniform_below(4) == 0) {
      LogicalProcess& nb = *lps[(i + 1) % lp_count];
      const SimTime at =
          s.now() + kL + static_cast<SimTime>(s.rng().uniform_below(5));
      k.post(lp, nb, at, 1, [&record, &nb, at] {
        record(nb.rank(), at, 1);
      });
    }
    const SimTime gap = 1 + static_cast<SimTime>(s.rng().uniform_below(9));
    if (s.now() + gap <= kEnd)
      s.schedule_at(s.now() + gap, [&tick, i] { tick(i); });
  };
  for (std::size_t i = 0; i < lp_count; ++i) {
    lps[i]->sim().schedule_at(static_cast<SimTime>(1 + i), [&tick, i] {
      tick(i);
    });
  }
  k.run();

  // Canonical order: the concurrent drains may interleave log *appends*,
  // but the per-LP sequences and the set of entries must be identical.
  std::sort(log.entries.begin(), log.entries.end());
  for (LogicalProcess* lp : lps) {
    RngStream probe = lp->sim().rng();  // copy forks deterministically
    log.rng_words.push_back(probe.bits());
  }
  return log;
}

TEST(ParallelKernel, RingWorldBitIdenticalAcrossWorkerCounts) {
  const RingLog inline_run = run_ring(6, 1, 0xA11CE);
  EXPECT_FALSE(inline_run.entries.empty());
  for (const std::size_t workers : {2u, 4u}) {
    const RingLog pooled = run_ring(6, workers, 0xA11CE);
    EXPECT_EQ(pooled.entries, inline_run.entries) << workers << " workers";
    EXPECT_EQ(pooled.rng_words, inline_run.rng_words)
        << workers << " workers";
  }
}

TEST(ParallelKernel, RingWorldSeedSensitive) {
  const RingLog a = run_ring(6, 1, 0xA11CE);
  const RingLog b = run_ring(6, 1, 0xB0B);
  EXPECT_NE(a.entries, b.entries);
}

}  // namespace
}  // namespace tcast::sim::parallel
