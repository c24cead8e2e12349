// Integration tests of Channel + Radio: delivery, collisions, HACK
// superposition, address recognition, auto-ack, CCA/activity, energy.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "radio/channel.hpp"
#include "radio/radio.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {
namespace {

struct World {
  explicit World(ChannelConfig cfg = {}, std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::move(cfg)) {}

  Radio& add(NodeId id, ShortAddr addr) {
    radios.push_back(std::make_unique<Radio>(channel, id, addr));
    radios.back()->power_on();
    return *radios.back();
  }

  sim::Simulator sim;
  Channel channel;
  std::vector<std::unique_ptr<Radio>> radios;
};

Frame data_frame(ShortAddr src, ShortAddr dest, std::size_t bytes = 8) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dest = dest;
  f.data.resize(bytes);
  return f;
}

TEST(ChannelRadio, CleanBroadcastReachesAllListeners) {
  World w;
  auto& tx = w.add(0, 10);
  auto& rx1 = w.add(1, 11);
  auto& rx2 = w.add(2, 12);
  int received = 0;
  const auto handler = [&received](const Frame& f, const RxInfo& info) {
    EXPECT_EQ(f.type, FrameType::kData);
    EXPECT_EQ(info.contenders, 1u);
    EXPECT_FALSE(info.captured);
    ++received;
  };
  rx1.set_receive_handler(handler);
  rx2.set_receive_handler(handler);
  tx.transmit(data_frame(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(ChannelRadio, SenderDoesNotHearItself) {
  World w;
  auto& tx = w.add(0, 10);
  w.add(1, 11);
  bool self_rx = false;
  tx.set_receive_handler([&](const Frame&, const RxInfo&) { self_rx = true; });
  tx.transmit(data_frame(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_FALSE(self_rx);
}

TEST(ChannelRadio, UnicastFilteredByAddress) {
  World w;
  auto& tx = w.add(0, 10);
  auto& hit = w.add(1, 11);
  auto& miss = w.add(2, 12);
  int hits = 0, misses = 0;
  hit.set_receive_handler([&](const Frame&, const RxInfo&) { ++hits; });
  miss.set_receive_handler([&](const Frame&, const RxInfo&) { ++misses; });
  tx.transmit(data_frame(10, 11));
  w.sim.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(misses, 0);
  EXPECT_EQ(miss.frames_received(), 0u);
}

TEST(ChannelRadio, AlternateAddressAccepts) {
  World w;
  auto& tx = w.add(0, 10);
  auto& rx = w.add(1, 11);
  rx.set_alt_address(0xE005);
  int got = 0;
  rx.set_receive_handler([&](const Frame&, const RxInfo&) { ++got; });
  tx.transmit(data_frame(10, 0xE005));
  w.sim.run();
  EXPECT_EQ(got, 1);
  rx.set_alt_address(std::nullopt);
  tx.transmit(data_frame(10, 0xE005));
  w.sim.run();
  EXPECT_EQ(got, 1);  // cleared: no longer accepted
}

TEST(ChannelRadio, SimultaneousDistinctFramesCollideWithoutCapture) {
  World w;  // default: NoCaptureModel
  auto& a = w.add(0, 10);
  auto& b = w.add(1, 11);
  auto& rx = w.add(2, 12);
  int received = 0;
  int activity = 0;
  rx.set_receive_handler([&](const Frame&, const RxInfo&) { ++received; });
  rx.set_activity_handler([&](SimTime, SimTime) { ++activity; });
  a.transmit(data_frame(10, kBroadcastAddr));
  b.transmit(data_frame(11, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(received, 0);  // destructive collision
  EXPECT_EQ(activity, 1);  // but energy was seen
}

TEST(ChannelRadio, CaptureModelCanRescueACollision) {
  ChannelConfig cfg;
  cfg.capture = std::make_shared<GeometricCaptureModel>(1.0, 1.0);  // always
  World w(cfg);
  auto& a = w.add(0, 10);
  auto& b = w.add(1, 11);
  auto& rx = w.add(2, 12);
  std::optional<RxInfo> info;
  rx.set_receive_handler(
      [&](const Frame&, const RxInfo& i) { info = i; });
  a.transmit(data_frame(10, kBroadcastAddr));
  b.transmit(data_frame(11, kBroadcastAddr));
  w.sim.run();
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->captured);
  EXPECT_EQ(info->contenders, 2u);
}

TEST(ChannelRadio, IdenticalHacksSuperposeNondestructively) {
  World w;
  auto& a = w.add(0, 10);
  auto& b = w.add(1, 11);
  auto& rx = w.add(2, 12);
  std::optional<RxInfo> info;
  rx.set_receive_handler([&](const Frame& f, const RxInfo& i) {
    EXPECT_EQ(f.type, FrameType::kHack);
    info = i;
  });
  Frame hack;
  hack.type = FrameType::kHack;
  hack.seq = 5;
  hack.dest = 12;
  a.transmit(hack);
  b.transmit(hack);
  w.sim.run();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->superposed, 2u);
}

TEST(ChannelRadio, HackFalseNegativeModelApplies) {
  ChannelConfig cfg;
  cfg.hack = HackReceptionModel(1.0, 1.0);  // always miss
  World w(cfg);
  auto& a = w.add(0, 10);
  auto& rx = w.add(1, 11);
  int received = 0, activity = 0;
  rx.set_receive_handler([&](const Frame&, const RxInfo&) { ++received; });
  rx.set_activity_handler([&](SimTime, SimTime) { ++activity; });
  Frame hack;
  hack.type = FrameType::kHack;
  hack.seq = 1;
  hack.dest = 11;
  a.transmit(hack);
  w.sim.run();
  EXPECT_EQ(received, 0);  // decode failed
  EXPECT_EQ(activity, 1);  // energy still present
}

TEST(ChannelRadio, AutoAckAfterOneTurnaround) {
  World w;
  auto& tx = w.add(0, 10);
  w.add(1, 11);
  std::optional<SimTime> hack_at;
  std::uint8_t hack_seq = 0;
  tx.set_receive_handler([&](const Frame& f, const RxInfo&) {
    if (f.type == FrameType::kHack) {
      hack_at = w.sim.now();
      hack_seq = f.seq;
    }
  });
  Frame f = data_frame(10, 11);
  f.ack_request = true;
  f.seq = 42;
  const SimTime data_air = w.channel.airtime(f);
  Frame probe;
  probe.type = FrameType::kHack;
  const SimTime hack_air = w.channel.airtime(probe);
  tx.transmit(std::move(f));
  w.sim.run();
  ASSERT_TRUE(hack_at.has_value());
  EXPECT_EQ(hack_seq, 42);
  EXPECT_EQ(*hack_at, data_air + kTurnaround + hack_air);
}

TEST(ChannelRadio, NoAutoAckWithoutRequest) {
  World w;
  auto& tx = w.add(0, 10);
  w.add(1, 11);
  bool hacked = false;
  tx.set_receive_handler([&](const Frame& f, const RxInfo&) {
    hacked |= f.type == FrameType::kHack;
  });
  tx.transmit(data_frame(10, 11));  // ack_request defaults false
  w.sim.run();
  EXPECT_FALSE(hacked);
}

TEST(ChannelRadio, CcaSeesBusyChannel) {
  World w;
  auto& tx = w.add(0, 10);
  auto& other = w.add(1, 11);
  EXPECT_TRUE(other.cca_clear());
  tx.transmit(data_frame(10, kBroadcastAddr, 100));
  EXPECT_FALSE(other.cca_clear());
  w.sim.run();
  EXPECT_TRUE(other.cca_clear());
}

TEST(ChannelRadio, PoweredOffRadioReceivesNothing) {
  World w;
  auto& tx = w.add(0, 10);
  auto& rx = w.add(1, 11);
  int received = 0;
  rx.set_receive_handler([&](const Frame&, const RxInfo&) { ++received; });
  rx.power_off();
  tx.transmit(data_frame(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(received, 0);
}

TEST(ChannelRadio, CleanLossDropsFraction) {
  ChannelConfig cfg;
  cfg.clean_loss = 0.5;
  World w(cfg, 3);
  auto& tx = w.add(0, 10);
  auto& rx = w.add(1, 11);
  int received = 0;
  rx.set_receive_handler([&](const Frame&, const RxInfo&) { ++received; });
  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    tx.transmit(data_frame(10, kBroadcastAddr));
    w.sim.run();
  }
  EXPECT_NEAR(static_cast<double>(received) / sends, 0.5, 0.05);
}

TEST(ChannelRadio, EnergyAccountsTxAndRxTime) {
  World w;
  auto& tx = w.add(0, 10);
  w.add(1, 11);
  Frame f = data_frame(10, kBroadcastAddr, 50);
  const SimTime air = w.channel.airtime(f);
  tx.transmit(std::move(f));
  w.sim.run();
  tx.energy().settle(w.sim.now());
  EXPECT_EQ(tx.energy().time_in(RadioState::kTx), air);
  EXPECT_GT(tx.energy().energy_mj(), 0.0);
}

TEST(ChannelRadio, HalfDuplexTransmitAborts) {
  World w;
  auto& tx = w.add(0, 10);
  w.add(1, 11);
  tx.transmit(data_frame(10, kBroadcastAddr, 100));
  EXPECT_DEATH(tx.transmit(data_frame(10, kBroadcastAddr)), "half-duplex");
}

TEST(ChannelRadio, ClusterCountTracksResolvedClusters) {
  World w;
  auto& a = w.add(0, 10);
  auto& b = w.add(1, 11);
  w.add(2, 12);
  a.transmit(data_frame(10, kBroadcastAddr));
  b.transmit(data_frame(11, kBroadcastAddr));  // same cluster
  w.sim.run();
  EXPECT_EQ(w.channel.clusters_resolved(), 1u);
  a.transmit(data_frame(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(w.channel.clusters_resolved(), 2u);
}

}  // namespace
}  // namespace tcast::radio
