// Radio energy accounting (CC2420-flavoured current draws).
//
// Listening dominates a mote's budget; tcast's value proposition is fewer
// queries ⇒ shorter radio-on windows. The meter integrates time-in-state so
// the examples and benches can report energy alongside query counts.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace tcast::radio {

enum class RadioState : std::size_t { kOff = 0, kRx = 1, kTx = 2 };

inline constexpr std::size_t kRadioStateCount = 3;

// CC2420 datasheet typical values at 3.0 V.
inline constexpr double kOffMa = 0.001;  ///< power-down leakage
inline constexpr double kRxMa = 18.8;    ///< receive / listen
inline constexpr double kTxMa = 17.4;    ///< transmit at 0 dBm
inline constexpr double kVoltage = 3.0;

class EnergyMeter {
 public:
  /// Records a state change at simulated time `now` (monotonic).
  void transition(RadioState next, SimTime now);

  /// Closes the books at `now` without changing state (for reading totals).
  void settle(SimTime now) { transition(state_, now); }

  RadioState state() const { return state_; }
  SimTime time_in(RadioState s) const {
    return time_[static_cast<std::size_t>(s)];
  }

  /// Total charge in millicoulombs and energy in millijoules.
  double charge_mc() const;
  double energy_mj() const { return charge_mc() * kVoltage; }

 private:
  RadioState state_ = RadioState::kOff;
  SimTime last_change_ = 0;
  std::array<SimTime, kRadioStateCount> time_{};
};

}  // namespace tcast::radio
