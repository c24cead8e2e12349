// Pending-event set for the discrete-event kernel.
//
// Ordering is (time, sequence): events at equal times fire in scheduling
// order, which makes runs fully deterministic. Cancellation is lazy — the
// heap keeps a tombstone and the closure slot is recycled immediately.
//
// The heap is a hand-rolled 4-ary min-heap over 16-byte entries in one
// pre-reserved flat vector: ~half the sift-down depth of a binary heap and
// far better cache behavior than std::priority_queue's node compares, which
// matters because the packet tier builds one EventQueue per Monte-Carlo
// trial and pushes/pops thousands of events through it.
//
// Closures live in a flat slot pool (the low bits of an EventId name the
// slot; the high bits carry the monotonic sequence the ordering relies
// on), recycled through a free list. Steady-state scheduling therefore
// never touches the heap allocator — the packet tier's
// zero-allocations-per-query audit (tests/perf/alloc_audit_test.cpp)
// rests on this, so closures on hot paths must also fit std::function's
// inline buffer (16 bytes on libstdc++).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace tcast::sim {

using EventFn = std::function<void()>;

/// Opaque handle for cancellation. 0 is never issued.
using EventId = std::uint64_t;

class EventQueue {
 public:
  EventQueue();

  /// Schedules `fn` at absolute time `t`. Events at equal `t` fire in
  /// schedule order; `t` may equal the time of the event currently
  /// executing (same-time follow-ups run later this step).
  EventId schedule(SimTime t, EventFn fn);

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Precondition: !empty().
  SimTime next_time() const;

  /// Pops and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

 private:
  struct Entry {
    SimTime time;
    EventId id;  // high bits are the sequence number: schedule order
  };
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;  // sequence dominates the slot bits
  }

  // EventId layout: (sequence << kSlotBits) | slot. The sequence is
  // monotonic, so id comparison is schedule-order comparison whatever slot
  // an event landed in; a slot's current owner id detects staleness.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  bool entry_live(const Entry& e) const {
    const auto slot = static_cast<std::size_t>(e.id & kSlotMask);
    return slot_owner_[slot] == e.id;
  }

  void heap_push(const Entry& e) const;
  void heap_pop_top() const;
  void skip_dead() const;

  // mutable: next_time() is logically const but compacts tombstones.
  mutable std::vector<Entry> heap_;  ///< 4-ary min-heap, pre-reserved
  std::vector<EventFn> slots_;       ///< closure storage, slot-indexed
  std::vector<EventId> slot_owner_;  ///< owning id per slot; 0 = free
  std::vector<std::uint32_t> free_slots_;
  EventId next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace tcast::sim
