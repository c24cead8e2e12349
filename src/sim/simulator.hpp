// The discrete-event simulator: a clock, an event set, and a model RNG.
//
// One Simulator instance is one simulated world (one PacketChannel, one CSMA
// feedback session, ...). Determinism contract: given the same seed and the
// same sequence of schedule calls, every run is bit-identical.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace tcast::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1, std::uint64_t stream = 0)
      : rng_(seed, stream) {}

  SimTime now() const { return now_; }

  /// Schedules at an absolute time ≥ now().
  EventId schedule_at(SimTime t, EventFn fn);

  /// Schedules `delay ≥ 0` after now().
  EventId schedule_after(SimTime delay, EventFn fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs to quiescence (or until stop()). Returns events executed.
  std::size_t run();

  /// Runs events with time ≤ deadline; clock ends at min(deadline, last
  /// event) unless stopped. Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Executes at most `max_events`; returns how many ran.
  std::size_t run_steps(std::size_t max_events);

  /// Stops the current run() after the executing event returns.
  void stop() { stopped_ = true; }

  bool pending() const { return !queue_.empty(); }
  std::size_t pending_count() const { return queue_.size(); }

  /// World-model randomness (channel noise, jitter, backoff draws).
  RngStream& rng() { return rng_; }

  /// Steps events until `done()` is true or the queue empties. Use instead
  /// of run() when perpetual background processes (e.g. an interference
  /// source) keep the queue non-empty forever. Returns events executed;
  /// aborts after `max_steps` as a hang guard.
  std::size_t run_until_flag(const std::function<bool()>& done,
                             std::size_t max_steps = 10'000'000);

 private:
  std::size_t drain(SimTime deadline, std::size_t max_events);

  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  RngStream rng_;
};

}  // namespace tcast::sim
