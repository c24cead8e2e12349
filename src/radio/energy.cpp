#include "radio/energy.hpp"

#include "common/check.hpp"

namespace tcast::radio {

void EnergyMeter::transition(RadioState next, SimTime now) {
  TCAST_CHECK_MSG(now >= last_change_, "energy meter time went backwards");
  time_[static_cast<std::size_t>(state_)] += now - last_change_;
  state_ = next;
  last_change_ = now;
}

double EnergyMeter::charge_mc() const {
  const auto seconds = [](SimTime t) {
    return static_cast<double>(t) / static_cast<double>(kSecond);
  };
  return kOffMa * seconds(time_in(RadioState::kOff)) +
         kRxMa * seconds(time_in(RadioState::kRx)) +
         kTxMa * seconds(time_in(RadioState::kTx));
}

}  // namespace tcast::radio
