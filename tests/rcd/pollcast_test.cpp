// pollcast primitive tests: CCA-based 1+ detection plus 2+ capture.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rcd/pollcast.hpp"
#include "sim/simulator.hpp"

namespace tcast::rcd {
namespace {

struct PollcastWorld {
  explicit PollcastWorld(std::size_t participants,
                         radio::ChannelConfig cfg = {}, std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::move(cfg)) {
    initiator_radio =
        std::make_unique<radio::Radio>(channel, kNoNode, kInitiatorAddr);
    initiator_radio->power_on();
    initiator = std::make_unique<PollcastInitiator>(*initiator_radio);
    initiator_radio->set_receive_handler(
        [this](const radio::Frame& f, const radio::RxInfo& info) {
          initiator->on_frame(f, info);
        });
    initiator_radio->set_activity_handler(
        [this](SimTime s, SimTime e) { initiator->on_activity(s, e); });
    positive.assign(participants, false);
    for (std::size_t i = 0; i < participants; ++i) {
      auto radio = std::make_unique<radio::Radio>(
          channel, static_cast<NodeId>(i),
          participant_addr(static_cast<NodeId>(i)));
      radio->power_on();
      auto responder = std::make_unique<PollcastResponder>(
          *radio, [this, i](std::uint8_t) { return positive[i]; });
      auto* r = responder.get();
      radio->set_receive_handler(
          [r](const radio::Frame& f, const radio::RxInfo&) { r->on_frame(f); });
      radios.push_back(std::move(radio));
      responders.push_back(std::move(responder));
    }
  }

  void announce(const std::vector<std::uint16_t>& wire,
                std::uint32_t session = 1) {
    bool done = false;
    initiator->announce(1, session, wire, [&done] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  PollcastInitiator::PollResult poll(std::uint16_t bin) {
    PollcastInitiator::PollResult result;
    bool done = false;
    initiator->poll_bin(bin, [&](PollcastInitiator::PollResult r) {
      result = r;
      done = true;
    });
    sim.run();
    EXPECT_TRUE(done);
    return result;
  }

  sim::Simulator sim;
  radio::Channel channel;
  std::unique_ptr<radio::Radio> initiator_radio;
  std::unique_ptr<PollcastInitiator> initiator;
  std::vector<bool> positive;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<PollcastResponder>> responders;
};

TEST(Pollcast, SilenceOnEmptyBin) {
  PollcastWorld w(4);
  w.positive = {false, false, false, false};
  w.announce({0, 0, 0, 0});
  const auto r = w.poll(0);
  EXPECT_FALSE(r.activity);
  EXPECT_FALSE(r.captured.has_value());
}

TEST(Pollcast, LoneReplyIsCapturedWithIdentity) {
  PollcastWorld w(4);
  w.positive = {false, false, true, false};
  w.announce({0, 0, 0, 0});
  const auto r = w.poll(0);
  EXPECT_TRUE(r.activity);
  ASSERT_TRUE(r.captured.has_value());
  EXPECT_EQ(*r.captured, NodeId{2});
}

TEST(Pollcast, CollisionWithoutCaptureIsActivityOnly) {
  PollcastWorld w(4);  // default channel: NoCaptureModel
  w.positive = {true, true, true, false};
  w.announce({0, 0, 0, 0});
  const auto r = w.poll(0);
  EXPECT_TRUE(r.activity);
  EXPECT_FALSE(r.captured.has_value());
}

TEST(Pollcast, CaptureEffectYieldsSomeIdentity) {
  radio::ChannelConfig cfg;
  cfg.capture = std::make_shared<radio::GeometricCaptureModel>(1.0, 1.0);
  PollcastWorld w(3, cfg);
  w.positive = {true, true, false};
  w.announce({0, 0, 0});
  const auto r = w.poll(0);
  EXPECT_TRUE(r.activity);
  ASSERT_TRUE(r.captured.has_value());
  EXPECT_TRUE(*r.captured == NodeId{0} || *r.captured == NodeId{1});
}

TEST(Pollcast, BinFilteringRespected) {
  PollcastWorld w(4);
  w.positive = {true, true, true, true};
  w.announce({0, 0, 1, 1});
  // Polling bin 1 must not trigger bin 0's nodes.
  const auto r = w.poll(1);
  EXPECT_TRUE(r.activity);
  // All four positive, but the bin-1 reply collides only between nodes 2,3.
  const auto r0 = w.poll(0);
  EXPECT_TRUE(r0.activity);
}

TEST(Pollcast, ExcludedNodesStaySilent) {
  PollcastWorld w(2);
  w.positive = {true, true};
  w.announce({kNotInRound, kNotInRound});
  const auto r = w.poll(0);
  EXPECT_FALSE(r.activity);
}

TEST(Pollcast, RepeatedPollsAreIndependent) {
  PollcastWorld w(2);
  w.positive = {true, false};
  w.announce({0, 1});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(w.poll(0).activity);
    EXPECT_FALSE(w.poll(1).activity);
  }
}

TEST(Pollcast, NodeThatMissedTheAnnounceStaysSilent) {
  PollcastWorld w(2);
  w.positive = {true, false};
  w.announce({0, 1});
  // Node 0 sleeps through session 2's announce, which moves it to bin 1.
  w.radios[0]->power_off();
  w.announce({1, 0}, /*session=*/2);
  w.radios[0]->power_on();
  // Session 2's bin 0 holds only node 1, which is negative; node 0's bin 0
  // is session 1's and must not answer.
  const auto r = w.poll(0);
  EXPECT_FALSE(r.activity);
  EXPECT_FALSE(r.captured.has_value());
}

}  // namespace
}  // namespace tcast::rcd
