// Allocation and footprint audit for the query hot paths (`ctest -L
// perf`): after a warm-up that grows every reusable buffer to steady
// state, issuing queries must touch the heap ZERO times — on the exact
// tier (ExactChannel announce/query/bin-count cache, the RoundEngine round
// loop) and on the packet tier (the full PHY/MAC exchange per query). Heap
// traffic per query is how "fast" code quietly regresses: capacity churn
// is invisible to differential tests and ruins the sweep throughput the
// figures are built on. Building a packet world, or running one census,
// must cost a number of allocations that does not grow with N. And a
// thread that draws uniform_below at every bound must not grow the
// process's resident memory by more than its own stack: every pool worker
// and every tcastd thread draws.
//
// The audit counts every global operator new/delete. Sanitizer builds
// interpose the allocator and add their own bookkeeping allocations and
// per-thread shadow memory, so the suite skips itself there (CI's
// sanitizer matrix excludes `-L perf` anyway).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/counting.hpp"
#include "core/registry.hpp"
#include "core/round_engine.hpp"
#include "group/binning.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"
#include "radio/hack_model.hpp"

// The counting global allocator (counting_allocator.cpp): operator new
// calls since program start. Deletes are uncounted — the audit asserts "no
// allocation", and every alloc/free pair starts with a new.
std::uint64_t counted_news();

namespace tcast {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t news() { return counted_news(); }

TEST(AllocAudit, CountingAllocatorSeesVectorGrowth) {
  // Fixture self-test: the counter must actually observe heap traffic.
  const std::uint64_t before = news();
  std::vector<int> v(4096);
  EXPECT_GT(news(), before);
}

TEST(AllocAudit, ExactTierQueriesAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // 32 bins carry a word image (counted by the SIMD kernel); 256 bins have
  // none (counted by one walk of the arena).
  const struct {
    std::size_t n, x, bins;
  } shapes[] = {{128, 16, 32}, {1024, 128, 256}};
  for (const auto& shape : shapes) {
    RngStream rng(0xa110c, 1);
    auto channel =
        group::ExactChannel::with_random_positives(shape.n, shape.x, rng);
    std::vector<NodeId> candidates(channel.all_nodes().begin(),
                                   channel.all_nodes().end());
    group::BinAssignment a;

    // Warm-up: one full announce/query cycle grows the assignment arenas
    // and the channel's count cache to steady state.
    a.assign_random_equal_inplace(std::span<NodeId>(candidates), shape.bins,
                                  rng);
    channel.announce(a);
    for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
      (void)channel.query_bin(a, idx);

    std::size_t uncounted = 0;
    const std::uint64_t before = news();
    for (std::size_t round = 0; round < 50; ++round) {
      a.assign_random_equal_inplace(std::span<NodeId>(candidates), shape.bins,
                                    rng);
      channel.announce(a);
      uncounted += channel.oracle_bin_counts(a) == nullptr ? 1u : 0u;
      for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
        (void)channel.query_bin(a, idx);
    }
    EXPECT_EQ(news(), before)
        << shape.bins << "-bin announce/query cycle touched the heap";
    EXPECT_EQ(uncounted, 0u) << shape.bins << " bins";
  }
}

TEST(AllocAudit, ExactTierEngineTrialsAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // The full sweep inner loop: re-seed ground truth, rebind the persistent
  // engine, run the algorithm end to end. After one warm-up trial per
  // algorithm, whole trials must be heap-silent — this is the property the
  // batched sweep engine's throughput rests on.
  RngStream rng(0xa110c, 2);
  group::ExactChannel channel(std::vector<bool>(128), rng);
  core::RoundEngine engine(channel, rng, {});
  for (const auto& spec : core::algorithm_registry()) {
    if (!spec.run_with_engine) continue;
    // Two passes over the same trial grid. The first is warm-up: buffer
    // sizes depend on the trial shape (expinc grows its bin count with x),
    // so only a full pass reaches every buffer's high-water mark. The
    // second pass must then be heap-silent — the steady state the batched
    // sweep engine runs in.
    std::uint64_t before = 0;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      if (pass == 1) before = news();
      for (std::size_t trial = 0; trial < 30; ++trial) {
        RngStream trial_rng(0xa110d, trial_stream_id(77, trial));
        channel.rebind_rng(trial_rng);
        channel.assign_random_positives(trial % 33, trial_rng);
        channel.reset_query_counter();
        engine.rebind(channel, trial_rng, {});
        (void)spec.run_with_engine(engine, channel.all_nodes(), 16);
      }
    }
    EXPECT_EQ(news(), before) << spec.name << " trials touched the heap";
  }
}

TEST(AllocAudit, PacketTierQueriesAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  std::vector<bool> truth(48, false);
  for (std::size_t i = 0; i < 48; i += 5) truth[i] = true;
  // 1+ runs backcast (HACK superposition); 2+ runs pollcast, whose
  // positive members each schedule a reply frame per poll.
  for (const auto model :
       {group::CollisionModel::kOnePlus, group::CollisionModel::kTwoPlus}) {
    group::PacketChannel::Config cfg;
    cfg.model = model;
    cfg.channel.hack = radio::HackReceptionModel::ideal();
    group::PacketChannel channel(truth, cfg);

    group::BinAssignment a;
    a.assign_contiguous(channel.all_nodes(), 8);
    channel.announce(a);
    // Warm-up: every bin once (grows the wire map, frame buffers, and the
    // simulator's event queue to their steady-state capacity).
    for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
      (void)channel.query_bin(a, idx);

    const std::uint64_t before = news();
    for (std::size_t rep = 0; rep < 20; ++rep)
      for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
        (void)channel.query_bin(a, idx);
    EXPECT_EQ(news(), before)
        << (model == group::CollisionModel::kOnePlus ? "1+" : "2+")
        << " packet-tier query touched the heap";
  }
}

TEST(AllocAudit, PacketWorldBuildIsConstantInN) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // Every fresh-world session (Fig. 4's reboot between runs, a chaos
  // session, a tcastd packet load) builds and tears down a PacketChannel.
  // Its participants live in one block, so the heap traffic of a world
  // must not grow with N.
  const auto build_and_destroy = [](group::CollisionModel model,
                                    std::size_t n) {
    std::vector<bool> truth(n, false);
    for (std::size_t i = 0; i < n; i += 3) truth[i] = true;
    group::PacketChannel::Config cfg;
    cfg.model = model;
    const std::uint64_t before = news();
    { group::PacketChannel world(std::move(truth), cfg); }
    return news() - before;
  };
  for (const auto model :
       {group::CollisionModel::kOnePlus, group::CollisionModel::kTwoPlus}) {
    const char* name =
        model == group::CollisionModel::kOnePlus ? "1+" : "2+";
    const std::uint64_t small = build_and_destroy(model, 32);
    const std::uint64_t large = build_and_destroy(model, 128);
    EXPECT_EQ(small, large) << name << " world allocations grow with N";
    EXPECT_LE(large, 20u) << name << " world build allocates " << large
                          << " times";
  }
}

TEST(AllocAudit, CensusAllocatesTheSameAtAnyN) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // A census (tcastd's approximate path) runs 120-145 sampled probes. They
  // share one bin assignment whose arena is sized once, so its heap traffic
  // must not grow with N or with the number of probes.
  std::vector<std::uint64_t> costs;
  for (const std::size_t n : {64u, 1024u, 4096u}) {
    RngStream rng(0xa110c, n);
    auto channel = group::ExactChannel::with_random_positives(n, n / 8, rng);
    for (std::size_t rep = 0; rep < 3; ++rep) {
      const std::uint64_t before = news();
      const auto out = core::run_newport_zheng_count(
          channel, channel.all_nodes(), rng, core::CountOptions{});
      costs.push_back(news() - before);
      EXPECT_GT(out.queries, 100u);
      EXPECT_LE(costs.back(), 3u)
          << "census at N=" << n << " allocates " << costs.back()
          << " times";
    }
  }
  for (const std::uint64_t cost : costs)
    EXPECT_EQ(cost, costs.front()) << "census allocations grow with N";
}

/// This process's resident set (VmRSS), in KiB; 0 if it cannot be read.
std::size_t resident_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  return 0;
}

TEST(AllocAudit, UniformBelowKeepsNoPerThreadState) {
  if (kSanitized) GTEST_SKIP() << "sanitizer runtime adds per-thread memory";
  // 16 threads each draw at every bound 1-5,000, past the reciprocal
  // table's last bound (4,097), then wait while the resident set is read.
  // A thread costs its touched stack pages, 8-17 KiB; a per-thread
  // reciprocal cache of 4,096 slots cost 96 KiB more.
  constexpr std::size_t kThreads = 16;
  std::vector<std::uint64_t> sums(kThreads);
  std::latch drawn(kThreads);
  std::latch measured(1);

  const std::size_t before = resident_kib();
  ASSERT_GT(before, 0u);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      RngStream rng(0xf007, i);
      for (std::uint64_t bound = 1; bound <= 5000; ++bound)
        sums[i] += rng.uniform_below(bound);
      drawn.count_down();
      measured.wait();
    });
  }
  drawn.wait();
  const std::size_t during = resident_kib();
  measured.count_down();
  for (auto& t : threads) t.join();

  EXPECT_LT(during, before + kThreads * 48)
      << kThreads << " drawing threads grew the resident set by "
      << (during - before) << " KiB";
}

}  // namespace
}  // namespace tcast
