// Packet-tier CSMA MAC tests.
#include <gtest/gtest.h>

#include "csma_mac.hpp"
#include "radio/channel.hpp"
#include "radio/radio.hpp"
#include "sim/simulator.hpp"

namespace tcast::mac {
namespace {

struct World {
  explicit World(radio::ChannelConfig cfg = {}, std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::move(cfg)) {}
  sim::Simulator sim;
  radio::Channel channel;
};

radio::Frame data(radio::ShortAddr src, radio::ShortAddr dest) {
  radio::Frame f;
  f.type = radio::FrameType::kData;
  f.src = src;
  f.dest = dest;
  f.data.resize(16);
  return f;
}

TEST(CsmaMac, DeliversSingleFrame) {
  World w;
  radio::Radio tx(w.channel, 0, 10);
  radio::Radio rx(w.channel, 1, 11);
  tx.power_on();
  rx.power_on();
  int received = 0;
  rx.set_receive_handler(
      [&](const radio::Frame&, const radio::RxInfo&) { ++received; });
  CsmaMac mac(tx);
  bool sent = false;
  mac.send(data(10, 11), [&](bool ok) { sent = ok; });
  w.sim.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(mac.frames_sent(), 1u);
}

TEST(CsmaMac, QueueDrainsInOrder) {
  World w;
  radio::Radio tx(w.channel, 0, 10);
  radio::Radio rx(w.channel, 1, 11);
  tx.power_on();
  rx.power_on();
  std::vector<std::uint8_t> seqs;
  rx.set_receive_handler([&](const radio::Frame& f, const radio::RxInfo&) {
    seqs.push_back(f.seq);
  });
  CsmaMac mac(tx);
  for (std::uint8_t i = 0; i < 5; ++i) {
    auto f = data(10, 11);
    f.seq = i;
    mac.send(std::move(f));
  }
  w.sim.run();
  EXPECT_EQ(seqs, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST(CsmaMac, ContendersEventuallyBothDeliver) {
  // Two CSMA senders with random backoff should (almost always) serialise.
  World w({}, 7);
  radio::Radio a(w.channel, 0, 10), b(w.channel, 1, 11),
      rx(w.channel, 2, 12);
  a.power_on();
  b.power_on();
  rx.power_on();
  int received = 0;
  rx.set_receive_handler(
      [&](const radio::Frame&, const radio::RxInfo&) { ++received; });
  CsmaMac ma(a), mb(b);
  int delivered = 0;
  for (int round = 0; round < 50; ++round) {
    received = 0;
    ma.send(data(10, radio::kBroadcastAddr));
    mb.send(data(11, radio::kBroadcastAddr));
    w.sim.run();
    delivered += received;
  }
  // Random backoff can still collide occasionally; most rounds deliver both.
  EXPECT_GE(delivered, 80);
}

}  // namespace
}  // namespace tcast::mac
