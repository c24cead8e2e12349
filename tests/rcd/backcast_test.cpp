// backcast primitive tests on the packet-level substrate.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rcd/backcast.hpp"
#include "sim/simulator.hpp"

namespace tcast::rcd {
namespace {

struct BackcastWorld {
  explicit BackcastWorld(std::size_t participants,
                         radio::ChannelConfig cfg = {}, std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::move(cfg)) {
    initiator_radio =
        std::make_unique<radio::Radio>(channel, kNoNode, kInitiatorAddr);
    initiator_radio->power_on();
    initiator = std::make_unique<BackcastInitiator>(*initiator_radio);
    initiator_radio->set_receive_handler(
        [this](const radio::Frame& f, const radio::RxInfo& info) {
          initiator->on_frame(f, info);
        });
    positive.assign(participants, false);
    for (std::size_t i = 0; i < participants; ++i) {
      auto radio = std::make_unique<radio::Radio>(
          channel, static_cast<NodeId>(i), participant_addr(static_cast<NodeId>(i)));
      radio->power_on();
      auto responder = std::make_unique<BackcastResponder>(
          *radio, [this, i](std::uint8_t) { return positive[i]; });
      auto* r = responder.get();
      radio->set_receive_handler(
          [r](const radio::Frame& f, const radio::RxInfo&) { r->on_frame(f); });
      radios.push_back(std::move(radio));
      responders.push_back(std::move(responder));
    }
  }

  void announce(const std::vector<std::uint16_t>& wire) {
    bool done = false;
    initiator->announce(1, 1, wire, [&done] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  BackcastInitiator::PollResult poll(std::uint16_t bin) {
    BackcastInitiator::PollResult result;
    bool done = false;
    initiator->poll_bin(bin, [&](BackcastInitiator::PollResult r) {
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
  std::unique_ptr<BackcastInitiator> initiator;
  std::vector<bool> positive;
  std::vector<std::unique_ptr<radio::Radio>> radios;
  std::vector<std::unique_ptr<BackcastResponder>> responders;
};

TEST(Backcast, PredicateArmsOnlyPositiveAssignedNodes) {
  BackcastWorld w(4);
  w.positive = {true, false, true, false};
  w.announce({0, 0, 1, kNotInRound});
  EXPECT_EQ(w.responders[0]->armed_bin(), std::uint16_t{0});
  EXPECT_FALSE(w.responders[1]->armed_bin().has_value());  // negative
  EXPECT_EQ(w.responders[2]->armed_bin(), std::uint16_t{1});
  EXPECT_FALSE(w.responders[3]->armed_bin().has_value());  // excluded
  EXPECT_EQ(w.radios[0]->alt_address(), radio::kEphemeralBase + 0);
  EXPECT_EQ(w.radios[2]->alt_address(), radio::kEphemeralBase + 1);
}

TEST(Backcast, EmptyBinIsSilent) {
  BackcastWorld w(4);
  w.positive = {false, false, false, false};
  w.announce({0, 0, 1, 1});
  EXPECT_FALSE(w.poll(0).nonempty);
  EXPECT_FALSE(w.poll(1).nonempty);
}

TEST(Backcast, SinglePositiveYieldsOneHack) {
  BackcastWorld w(4);
  w.positive = {false, true, false, false};
  w.announce({0, 0, 1, 1});
  const auto r = w.poll(0);
  EXPECT_TRUE(r.nonempty);
  EXPECT_EQ(r.superposed, 1u);
  EXPECT_FALSE(w.poll(1).nonempty);
}

TEST(Backcast, MultiplePositivesSuperpose) {
  BackcastWorld w(6);
  w.positive = {true, true, true, true, false, false};
  w.announce({0, 0, 0, 0, 0, 0});
  const auto r = w.poll(0);
  EXPECT_TRUE(r.nonempty);
  EXPECT_EQ(r.superposed, 4u);
}

TEST(Backcast, ReAnnounceRebins) {
  BackcastWorld w(2);
  w.positive = {true, true};
  w.announce({0, 1});
  EXPECT_TRUE(w.poll(0).nonempty);
  w.announce({1, 0});  // swap bins
  EXPECT_TRUE(w.poll(0).nonempty);
  EXPECT_EQ(w.responders[0]->armed_bin(), std::uint16_t{1});
  EXPECT_EQ(w.responders[1]->armed_bin(), std::uint16_t{0});
}

TEST(Backcast, FalseNegativeInjection) {
  radio::ChannelConfig cfg;
  cfg.hack = radio::HackReceptionModel(1.0, 1.0);  // all HACKs lost
  BackcastWorld w(3, cfg);
  w.positive = {true, true, true};
  w.announce({0, 0, 0});
  EXPECT_FALSE(w.poll(0).nonempty);  // false negative, by construction
}

TEST(Backcast, NoFalsePositivesEver) {
  // Even with an aggressive loss/noise configuration, silence cannot become
  // a HACK: the initiator only reports nonempty on a decoded HACK.
  radio::ChannelConfig cfg;
  cfg.clean_loss = 0.5;
  BackcastWorld w(5, cfg, 99);
  w.positive = {false, false, false, false, false};
  w.announce({0, 0, 0, 0, 0});
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(w.poll(0).nonempty);
}

TEST(Backcast, PollsAreCounted) {
  BackcastWorld w(2);
  w.positive = {true, false};
  w.announce({0, 1});
  w.poll(0);
  w.poll(1);
  w.poll(0);
  EXPECT_EQ(w.initiator->polls_sent(), 3u);
}

TEST(Backcast, StaleHackFromPreviousPollIgnored) {
  // A HACK for sequence s must not satisfy the poll with sequence s+1.
  BackcastWorld w(1);
  w.positive = {true};
  w.announce({0});
  EXPECT_TRUE(w.poll(0).nonempty);
  w.positive = {false};
  w.announce({kNotInRound});
  EXPECT_FALSE(w.poll(0).nonempty);
}

TEST(BackcastDeathTest, PollBeyondTheAddressBlockAborts) {
  // The block is 0xE000..0xFFEF: bin 8176 would be polled at a reserved
  // address and bin 8191 at broadcast.
  EXPECT_EQ(max_bins(), 8176u);
  BackcastWorld w(2);
  w.positive = {true, false};
  w.announce({0, 1});
  EXPECT_FALSE(w.poll(8175).nonempty);
  EXPECT_DEATH(w.poll(8176), "ephemeral address block");
}

}  // namespace
}  // namespace tcast::rcd
