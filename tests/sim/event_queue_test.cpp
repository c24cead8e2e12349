#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace tcast::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(10, [&ran] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const auto id = q.schedule(10, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledTombstoneSkippedByNextTime) {
  EventQueue q;
  const auto early = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const auto id = q.schedule(42, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.time, 42);
  EXPECT_EQ(fired.id, id);
}

// Cross-check the optimized 4-ary heap against a std::set oracle over the
// full (time, seq) total order, under 10k randomized schedule/pop/cancel
// interleavings.
TEST(EventQueue, RandomizedInterleavingsMatchMultisetOracle) {
  using Key = std::pair<SimTime, EventId>;
  EventQueue q;
  std::set<Key> oracle;  // keys are unique: EventId is a tie-breaker
  std::vector<EventId> live;
  std::mt19937_64 rng(0x5eedu);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<SimTime> time_dist(0, 200);

  const auto key_of = [&](EventId id) -> Key {
    for (const Key& k : oracle)
      if (k.second == id) return k;
    ADD_FAILURE() << "id " << id << " missing from oracle";
    return {};
  };

  for (int step = 0; step < 10'000; ++step) {
    const int op = op_dist(rng);
    if (op < 5 || oracle.empty()) {  // schedule
      const SimTime t = time_dist(rng);
      const EventId id = q.schedule(t, [] {});
      oracle.insert(Key{t, id});
      live.push_back(id);
    } else if (op < 7) {  // cancel a random live event
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t at = pick(rng);
      const EventId id = live[at];
      oracle.erase(key_of(id));
      EXPECT_TRUE(q.cancel(id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else {  // pop: must match the oracle's minimum exactly
      const Key expected = *oracle.begin();
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.next_time(), expected.first);
      const auto fired = q.pop();
      EXPECT_EQ(fired.time, expected.first);
      EXPECT_EQ(fired.id, expected.second);
      oracle.erase(oracle.begin());
      live.erase(std::find(live.begin(), live.end(), fired.id));
    }
    ASSERT_EQ(q.size(), oracle.size());
    ASSERT_EQ(q.empty(), oracle.empty());
  }
  // Drain what is left; the full pop order must equal the oracle's order.
  while (!oracle.empty()) {
    const Key expected = *oracle.begin();
    const auto fired = q.pop();
    ASSERT_EQ(fired.time, expected.first);
    ASSERT_EQ(fired.id, expected.second);
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(q.empty());
}

// The CSMA pattern, stressed against the oracle on several independent
// queues (one per world): windows that drain each queue up to a horizon,
// cancel+reschedule churn, timeouts cancelled mid-drain, and bursts of
// unsorted arrivals at each window edge. Every pop must still match the
// per-queue (time, seq) oracle.
TEST(EventQueue, ShardedWindowsWithRescheduleChurnMatchOracle) {
  using Key = std::pair<SimTime, EventId>;
  constexpr std::size_t kShards = 4;
  struct Shard {
    EventQueue q;
    std::set<Key> oracle;
    std::vector<Key> live;  // cancellable events
    SimTime now = 0;
  };
  std::vector<Shard> shards(kShards);
  std::mt19937_64 rng(0xC3115u);
  std::uniform_int_distribution<SimTime> jitter(0, 40);

  const auto schedule = [](Shard& sh, SimTime t) {
    const EventId id = sh.q.schedule(t, [] {});
    sh.oracle.insert(Key{t, id});
    sh.live.push_back(Key{t, id});
  };
  const auto seed_events = [&](Shard& sh, int count) {
    std::uniform_int_distribution<int> churn(0, 3);
    for (int i = 0; i < count; ++i) {
      schedule(sh, sh.now + 1 + jitter(rng));
      // ~1 in 4 scheduled events is immediately rescheduled (the CSMA
      // backoff-restart pattern): cancel, then re-enter at a new time.
      if (churn(rng) == 0) {
        const Key k = sh.live.back();
        sh.oracle.erase(k);
        sh.live.pop_back();
        ASSERT_TRUE(sh.q.cancel(k.second));
        schedule(sh, sh.now + 1 + jitter(rng));
      }
    }
  };
  for (Shard& sh : shards) seed_events(sh, 40);

  for (int window = 0; window < 60; ++window) {
    for (Shard& sh : shards) {
      const SimTime horizon = sh.now + 15;
      while (!sh.q.empty() && sh.q.next_time() < horizon) {
        const Key expected = *sh.oracle.begin();
        const auto fired = sh.q.pop();
        ASSERT_EQ(fired.time, expected.first);
        ASSERT_EQ(fired.id, expected.second);
        sh.oracle.erase(sh.oracle.begin());
        std::erase_if(sh.live,
                      [&](const Key& k) { return k.second == fired.id; });
        sh.now = fired.time;
        // Occasionally cancel a random still-live event mid-drain (a
        // reply arriving kills the pending timeout).
        if (!sh.live.empty() && jitter(rng) < 8) {
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          sh.live.size() - 1);
          const Key victim = sh.live[pick(rng)];
          ASSERT_TRUE(sh.q.cancel(victim.second));
          sh.oracle.erase(victim);
          std::erase_if(sh.live, [&](const Key& k) { return k == victim; });
        }
      }
      sh.now = horizon;
      // A burst of unsorted arrivals at the window edge, some at equal
      // times: schedule order alone must break those ties.
      std::uniform_int_distribution<int> burst(0, 5);
      for (int i = burst(rng); i > 0; --i)
        schedule(sh, sh.now + 1 + jitter(rng) / 8);
      // Background churn keeps every queue busy across windows.
      seed_events(sh, 3);
    }
  }

  // Final drain: full pop order equals the oracle order on every queue.
  for (Shard& sh : shards) {
    ASSERT_EQ(sh.q.size(), sh.oracle.size());
    while (!sh.oracle.empty()) {
      const Key expected = *sh.oracle.begin();
      const auto fired = sh.q.pop();
      ASSERT_EQ(fired.time, expected.first);
      ASSERT_EQ(fired.id, expected.second);
      sh.oracle.erase(sh.oracle.begin());
    }
    EXPECT_TRUE(sh.q.empty());
  }
}

TEST(EventQueue, InterleavedCancelAndPop) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i)
    ids.push_back(q.schedule(i, [&fired, i] { fired.push_back(i); }));
  for (int i = 0; i < 20; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 10u);
  for (const int v : fired) EXPECT_EQ(v % 2, 1);
}

}  // namespace
}  // namespace tcast::sim
