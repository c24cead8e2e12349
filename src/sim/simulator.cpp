#include "sim/simulator.hpp"

#include <limits>

#include "common/check.hpp"

namespace tcast::sim {

EventId Simulator::schedule_at(SimTime t, EventFn fn) {
  TCAST_CHECK_MSG(t >= now_, "cannot schedule into the past");
  return queue_.schedule(t, std::move(fn));
}

EventId Simulator::schedule_after(SimTime delay, EventFn fn) {
  TCAST_CHECK(delay >= 0);
  return queue_.schedule(now_ + delay, std::move(fn));
}

std::size_t Simulator::drain(SimTime deadline, std::size_t max_events) {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && executed < max_events && !queue_.empty() &&
         queue_.next_time() <= deadline) {
    auto fired = queue_.pop();
    now_ = fired.time;
    fired.fn();
    ++executed;
  }
  if (!stopped_ && deadline != std::numeric_limits<SimTime>::max() &&
      now_ < deadline && (queue_.empty() || queue_.next_time() > deadline))
    now_ = deadline;
  return executed;
}

std::size_t Simulator::run() {
  return drain(std::numeric_limits<SimTime>::max(),
               std::numeric_limits<std::size_t>::max());
}

std::size_t Simulator::run_until(SimTime deadline) {
  TCAST_CHECK(deadline >= now_);
  return drain(deadline, std::numeric_limits<std::size_t>::max());
}

std::size_t Simulator::run_steps(std::size_t max_events) {
  return drain(std::numeric_limits<SimTime>::max(), max_events);
}

std::size_t Simulator::run_until_flag(const std::function<bool()>& done,
                                      std::size_t max_steps) {
  std::size_t executed = 0;
  while (!done() && !queue_.empty()) {
    executed += drain(std::numeric_limits<SimTime>::max(), 1);
    TCAST_CHECK_MSG(executed < max_steps, "run_until_flag: hang guard hit");
  }
  return executed;
}

}  // namespace tcast::sim
