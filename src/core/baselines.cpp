#include "core/baselines.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace tcast::core {

namespace {

struct Contender {
  std::size_t cw;
  std::size_t counter;  ///< idle slots to wait before transmitting
};

}  // namespace

CsmaBaselineOutcome run_csma_baseline(std::size_t n, std::size_t x,
                                      std::size_t t, RngStream& rng) {
  TCAST_CHECK(x <= n);

  CsmaBaselineOutcome result;
  const bool truth = x >= t;

  std::vector<Contender> pending(x);
  for (auto& c : pending) {
    c.cw = kCsmaMinCw;
    c.counter = static_cast<std::size_t>(rng.uniform_below(c.cw));
  }

  std::size_t idle_run = 0;
  // Hard stop: even pathological backoff cannot exceed this (every node
  // needs at most kCsmaMaxCw slots per attempt and collides O(log) times).
  const std::size_t slot_cap =
      kCsmaQuiescenceSlots + 4 * (x + 1) * kCsmaMaxCw;

  while (result.slots < slot_cap) {
    ++result.slots;
    std::size_t transmitters = 0;
    for (const auto& c : pending)
      if (c.counter == 0) ++transmitters;

    if (transmitters == 0) {
      // Idle slot: everyone decrements (carrier sense saw a free medium).
      for (auto& c : pending)
        if (c.counter > 0) --c.counter;
      ++idle_run;
      if (idle_run >= kCsmaQuiescenceSlots) {
        result.decision = false;  // assumes all replies are in
        break;
      }
      continue;
    }

    idle_run = 0;
    if (transmitters == 1) {
      // Success: remove the transmitter.
      const auto it = std::find_if(pending.begin(), pending.end(),
                                   [](const Contender& c) {
                                     return c.counter == 0;
                                   });
      pending.erase(it);
      ++result.successes;
      if (result.successes >= t) {
        result.decision = true;
        break;
      }
    } else {
      // Collision: colliders double their window and redraw; bystanders
      // freeze (medium was busy).
      ++result.collisions;
      for (auto& c : pending) {
        if (c.counter == 0) {
          c.cw = std::min(c.cw * 2, kCsmaMaxCw);
          c.counter = 1 + static_cast<std::size_t>(rng.uniform_below(c.cw));
        }
      }
    }
  }

  result.correct = result.decision == truth;
  return result;
}

SequentialBaselineOutcome run_sequential_baseline(std::size_t n,
                                                  std::size_t x,
                                                  std::size_t t,
                                                  RngStream& rng) {
  TCAST_CHECK(x <= n);
  SequentialBaselineOutcome result;
  if (t == 0) {  // trivially satisfied before any slot
    result.decision = true;
    return result;
  }
  // Positions of the positive nodes in the (random) schedule.
  std::vector<bool> positive(n, false);
  for (const NodeId id : rng.sample_subset(n, x))
    positive[static_cast<std::size_t>(id)] = true;

  for (std::size_t i = 0; i < n; ++i) {
    ++result.slots;
    if (positive[i]) ++result.positives_seen;
    if (result.positives_seen >= t) {
      result.decision = true;
      return result;
    }
    const std::size_t remaining = n - i - 1;
    if (result.positives_seen + remaining < t) {
      result.decision = false;
      return result;
    }
  }
  result.decision = result.positives_seen >= t;
  return result;
}

}  // namespace tcast::core
