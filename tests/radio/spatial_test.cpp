// Spatial (finite-range) channel: unit-disk reception, per-receiver
// collisions, hidden terminals, and neighbouring-region asymmetries.
#include <gtest/gtest.h>

#include "csma_mac.hpp"
#include "radio/channel.hpp"
#include "radio/radio.hpp"
#include "rcd/backcast.hpp"
#include "rcd/pollcast.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {
namespace {

Frame data(ShortAddr src, ShortAddr dest, std::size_t bytes = 8) {
  Frame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dest = dest;
  f.data.resize(bytes);
  return f;
}

struct SpatialWorld {
  explicit SpatialWorld(double range, std::uint64_t seed = 1)
      : sim(seed), channel(sim, make_cfg(range)) {}

  static ChannelConfig make_cfg(double range) {
    ChannelConfig cfg;
    cfg.range = range;
    return cfg;
  }

  Radio& add(NodeId id, ShortAddr addr, double x, double y) {
    radios.push_back(std::make_unique<Radio>(channel, id, addr));
    radios.back()->set_position(x, y);
    radios.back()->power_on();
    return *radios.back();
  }

  sim::Simulator sim;
  Channel channel;
  std::vector<std::unique_ptr<Radio>> radios;
};

TEST(Spatial, OutOfRangeReceiverHearsNothing) {
  SpatialWorld w(10.0);
  auto& tx = w.add(0, 10, 0, 0);
  auto& near = w.add(1, 11, 5, 0);
  auto& far = w.add(2, 12, 50, 0);
  int near_rx = 0, far_rx = 0, far_activity = 0;
  near.set_receive_handler([&](const Frame&, const RxInfo&) { ++near_rx; });
  far.set_receive_handler([&](const Frame&, const RxInfo&) { ++far_rx; });
  far.set_activity_handler([&](SimTime, SimTime) { ++far_activity; });
  tx.transmit(data(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(near_rx, 1);
  EXPECT_EQ(far_rx, 0);
  EXPECT_EQ(far_activity, 0);  // not even energy
}

TEST(Spatial, RangeBoundaryIsInclusive) {
  SpatialWorld w(10.0);
  auto& tx = w.add(0, 10, 0, 0);
  auto& edge = w.add(1, 11, 10.0, 0);  // exactly at range
  int rx = 0;
  edge.set_receive_handler([&](const Frame&, const RxInfo&) { ++rx; });
  tx.transmit(data(10, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(rx, 1);
}

TEST(Spatial, CcaIsLocal) {
  SpatialWorld w(10.0);
  auto& tx = w.add(0, 10, 0, 0);
  auto& near = w.add(1, 11, 5, 0);
  auto& far = w.add(2, 12, 100, 0);
  tx.transmit(data(10, kBroadcastAddr, 64));
  EXPECT_FALSE(near.cca_clear());  // hears the transmission
  EXPECT_TRUE(far.cca_clear());    // idle over there
  EXPECT_TRUE(w.channel.busy());   // global view still busy
  w.sim.run();
  EXPECT_TRUE(near.cca_clear());
}

TEST(Spatial, HiddenTerminalCollisionAtTheMiddle) {
  // A(0) --- R(10) --- B(20), range 12: A and B cannot hear each other but
  // both reach R. Simultaneous sends collide at R although each sender's
  // CCA was clear — the paper's hidden-terminal argument against CSMA.
  SpatialWorld w(12.0);
  auto& a = w.add(0, 10, 0, 0);
  auto& r = w.add(1, 11, 10, 0);
  auto& b = w.add(2, 12, 20, 0);
  int received = 0, activity = 0;
  r.set_receive_handler([&](const Frame&, const RxInfo&) { ++received; });
  r.set_activity_handler([&](SimTime, SimTime) { ++activity; });
  EXPECT_TRUE(a.cca_clear());
  EXPECT_TRUE(b.cca_clear());
  a.transmit(data(10, kBroadcastAddr));
  EXPECT_TRUE(b.cca_clear());  // A is hidden from B
  b.transmit(data(12, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(received, 0);  // destroyed at R
  EXPECT_EQ(activity, 1);
}

TEST(Spatial, DisjointCellsDeliverIndependently) {
  // Two far-apart pairs transmit simultaneously; both receivers decode —
  // spatial reuse that the single-collision-domain model cannot express.
  SpatialWorld w(10.0);
  auto& tx1 = w.add(0, 10, 0, 0);
  auto& rx1 = w.add(1, 11, 5, 0);
  auto& tx2 = w.add(2, 12, 1000, 0);
  auto& rx2 = w.add(3, 13, 1005, 0);
  int got1 = 0, got2 = 0;
  rx1.set_receive_handler([&](const Frame& f, const RxInfo& i) {
    EXPECT_EQ(f.src, 10);
    EXPECT_EQ(i.contenders, 1u);
    ++got1;
  });
  rx2.set_receive_handler([&](const Frame& f, const RxInfo& i) {
    EXPECT_EQ(f.src, 12);
    EXPECT_EQ(i.contenders, 1u);
    ++got2;
  });
  tx1.transmit(data(10, kBroadcastAddr));
  tx2.transmit(data(12, kBroadcastAddr));
  w.sim.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
}

TEST(Spatial, CsmaHiddenTerminalsCollideMoreThanExposedOnes) {
  // Statistical version with the CSMA MAC: hidden senders lose far more
  // frames at the shared receiver than mutually-audible senders do.
  const auto loss_rate = [](double separation) {
    SpatialWorld w(12.0, 42);
    auto& a = w.add(0, 10, 0, 0);
    auto& r = w.add(1, 11, separation / 2, 0);
    auto& b = w.add(2, 12, separation, 0);
    (void)r;
    int received = 0;
    w.radios[1]->set_receive_handler(
        [&](const Frame&, const RxInfo&) { ++received; });
    mac::CsmaMac ma(a), mb(b);
    const int rounds = 200;
    for (int i = 0; i < rounds; ++i) {
      ma.send(data(10, kBroadcastAddr));
      mb.send(data(12, kBroadcastAddr));
      w.sim.run();
    }
    return 1.0 - static_cast<double>(received) / (2.0 * rounds);
  };
  const double exposed = loss_rate(8.0);   // A and B hear each other
  const double hidden = loss_rate(20.0);   // A and B mutually hidden
  EXPECT_GT(hidden, exposed + 0.1);
}

TEST(Spatial, NeighbourRegionJamsRespondersNotInitiator) {
  // Foreign transmitter audible to the responder but NOT to the initiator:
  // pollcast's initiator-side CCA shows no false positive, yet the
  // responder can miss the poll — an asymmetry only a spatial model shows.
  SpatialWorld w(12.0, 7);
  auto& init_radio = w.add(kNoNode, rcd::kInitiatorAddr, 0, 0);
  auto& resp_radio = w.add(0, rcd::participant_addr(0), 10, 0);
  auto& jammer = w.add(kNoNode, 0xBEEF, 21, 0);  // hears/reaches resp only
  jammer.set_auto_ack(false);

  rcd::PollcastInitiator initiator(init_radio);
  bool resp_positive = true;
  rcd::PollcastResponder responder(
      resp_radio, [&resp_positive](std::uint8_t) { return resp_positive; });
  init_radio.set_receive_handler(
      [&](const Frame& f, const RxInfo& i) { initiator.on_frame(f, i); });
  init_radio.set_activity_handler(
      [&](SimTime s, SimTime e) { initiator.on_activity(s, e); });
  resp_radio.set_receive_handler(
      [&](const Frame& f, const RxInfo&) { responder.on_frame(f); });

  // Announce cleanly (jammer quiet), then poll while the jammer talks over
  // the responder's reception.
  bool announced = false;
  initiator.announce(1, 1, {0}, [&] { announced = true; });
  w.sim.run();
  ASSERT_TRUE(announced);

  // Jam continuously: long back-to-back foreign frames at the responder.
  for (int i = 0; i < 40; ++i) {
    w.sim.schedule_at(w.sim.now() + i * 2000, [&jammer] {
      if (!jammer.transmitting()) {
        Frame f;
        f.type = FrameType::kData;
        f.src = 0xBEEF;
        f.dest = 0xBEEF;
        f.data.resize(60);
        jammer.transmit(std::move(f));
      }
    });
  }
  bool got_result = false;
  rcd::PollcastInitiator::PollResult result;
  initiator.poll_bin(0, [&](rcd::PollcastInitiator::PollResult r) {
    result = r;
    got_result = true;
  });
  w.sim.run();
  ASSERT_TRUE(got_result);
  // The responder's poll reception collided with the jammer: no reply, and
  // since the jammer is out of the initiator's earshot, no energy either —
  // a clean false NEGATIVE with no false-positive pathway.
  EXPECT_FALSE(result.activity);
}

}  // namespace
}  // namespace tcast::radio
