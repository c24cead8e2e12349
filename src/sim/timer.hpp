// RAII one-shot / periodic timer bound to a Simulator.
//
// Mirrors the TinyOS Timer interface (startOneShot / startPeriodic / stop /
// isRunning); the rcd initiators' response windows and the interference
// source run on it.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace tcast::sim {

class Timer {
 public:
  Timer(Simulator& simulator, std::function<void()> fired)
      : sim_(&simulator), fired_(std::move(fired)) {}

  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fires once after `delay`.
  void start_one_shot(SimTime delay);

  /// Fires every `period` until stopped; first firing after one period.
  void start_periodic(SimTime period);

  void stop();

  bool is_running() const { return pending_ != 0; }

 private:
  void arm(SimTime delay);
  void on_fire();

  Simulator* sim_;
  std::function<void()> fired_;
  EventId pending_ = 0;
  SimTime period_ = 0;  // 0 = one-shot
};

}  // namespace tcast::sim
