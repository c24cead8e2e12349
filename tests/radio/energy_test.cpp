#include "radio/energy.hpp"

#include <gtest/gtest.h>

namespace tcast::radio {
namespace {

TEST(EnergyMeter, AccumulatesTimePerState) {
  EnergyMeter meter;
  meter.transition(RadioState::kRx, 0);
  meter.transition(RadioState::kTx, 100);
  meter.transition(RadioState::kRx, 150);
  meter.transition(RadioState::kOff, 400);
  meter.settle(1000);
  EXPECT_EQ(meter.time_in(RadioState::kRx), 100 + 250);
  EXPECT_EQ(meter.time_in(RadioState::kTx), 50);
  EXPECT_EQ(meter.time_in(RadioState::kOff), 600);
}

TEST(EnergyMeter, ChargeUsesConfiguredCurrents) {
  // The CC2420 datasheet currents: 1 s each of RX, TX and power-down.
  EnergyMeter meter;
  meter.transition(RadioState::kRx, 0);
  meter.transition(RadioState::kTx, kSecond);      // 1 s RX
  meter.transition(RadioState::kOff, 2 * kSecond); // 1 s TX
  meter.settle(3 * kSecond);                       // 1 s off
  EXPECT_DOUBLE_EQ(meter.charge_mc(), 18.8 + 17.4 + 0.001);
  EXPECT_DOUBLE_EQ(meter.energy_mj(), 3.0 * (18.8 + 17.4 + 0.001));
}

TEST(EnergyMeter, SettleIsIdempotent) {
  EnergyMeter meter;
  meter.transition(RadioState::kRx, 0);
  meter.settle(500);
  meter.settle(500);
  EXPECT_EQ(meter.time_in(RadioState::kRx), 500);
}

TEST(EnergyMeter, ListeningDominatesIdleBudget) {
  // The motivation for fewer queries: an always-listening radio burns
  // orders of magnitude more than a sleeping one.
  EnergyMeter listening, sleeping;
  listening.transition(RadioState::kRx, 0);
  sleeping.transition(RadioState::kOff, 0);
  listening.settle(10 * kSecond);
  sleeping.settle(10 * kSecond);
  EXPECT_GT(listening.energy_mj(), 1000.0 * sleeping.energy_mj());
}

TEST(EnergyMeterDeathTest, TimeCannotGoBackwards) {
  EnergyMeter meter;
  meter.transition(RadioState::kRx, 100);
  EXPECT_DEATH(meter.transition(RadioState::kTx, 50), "backwards");
}

}  // namespace
}  // namespace tcast::radio
