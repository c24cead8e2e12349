#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcast::sim {

namespace {
// One packet-tier poll schedules a few dozen events; 64 slots absorb the
// common case with a single up-front allocation per queue.
constexpr std::size_t kReserve = 64;
}  // namespace

EventQueue::EventQueue() {
  heap_.reserve(kReserve);
  slots_.reserve(kReserve);
  slot_owner_.reserve(kReserve);
  free_slots_.reserve(kReserve);
}

void EventQueue::heap_push(const Entry& e) const {
  // 4-ary sift-up with a hole instead of repeated swaps.
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::heap_pop_top() const {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former tail down from the root, again hole-style.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t fence = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < fence; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

EventId EventQueue::schedule(SimTime t, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    TCAST_CHECK_MSG(slots_.size() <= kSlotMask, "too many live events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_owner_.push_back(0);
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot] = std::move(fn);
  slot_owner_[slot] = id;
  heap_push(Entry{t, id});
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::size_t>(id & kSlotMask);
  if (slot >= slot_owner_.size() || slot_owner_[slot] != id) return false;
  slot_owner_[slot] = 0;
  slots_[slot] = nullptr;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
  return true;  // heap tombstone skipped on pop
}

void EventQueue::skip_dead() const {
  while (!heap_.empty() && !entry_live(heap_.front())) heap_pop_top();
}

SimTime EventQueue::next_time() const {
  TCAST_CHECK(!empty());
  skip_dead();
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  TCAST_CHECK(!empty());
  skip_dead();
  const Entry top = heap_.front();
  heap_pop_top();
  const auto slot = static_cast<std::size_t>(top.id & kSlotMask);
  Fired fired{top.time, top.id, std::move(slots_[slot])};
  slots_[slot] = nullptr;  // drop any residue the move left behind
  slot_owner_[slot] = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
  return fired;
}

}  // namespace tcast::sim
