// Interference source + the Sec. III-B robustness claims.
#include <gtest/gtest.h>

#include "core/two_t_bins.hpp"
#include "group/instrumented_channel.hpp"
#include "group/packet_channel.hpp"
#include "radio/interference.hpp"

namespace tcast::radio {
namespace {

TEST(InterferenceSource, EmitsAtRoughlyTheConfiguredDuty) {
  sim::Simulator sim(1);
  Channel channel(sim, {});
  InterferenceSource::Config cfg;
  cfg.duty = 0.3;
  InterferenceSource source(channel, cfg);
  source.start();

  // Measure busy time with a listening observer radio.
  Radio observer(channel, 0, 1);
  observer.power_on();
  SimTime busy = 0;
  observer.set_activity_handler(
      [&busy](SimTime s, SimTime e) { busy += e - s; });
  const SimTime horizon = 10 * kSecond;
  sim.run_until(horizon);
  source.stop();
  EXPECT_GT(source.frames_emitted(), 100u);
  const double measured =
      static_cast<double>(busy) / static_cast<double>(horizon);
  EXPECT_NEAR(measured, 0.3, 0.06);
}

TEST(InterferenceSource, ZeroDutyStaysSilent) {
  sim::Simulator sim(1);
  Channel channel(sim, {});
  InterferenceSource source(channel, {.duty = 0.0});
  source.start();
  sim.run_until(kSecond);
  EXPECT_EQ(source.frames_emitted(), 0u);
}

TEST(InterferenceSource, StopHalts) {
  sim::Simulator sim(1);
  Channel channel(sim, {});
  InterferenceSource source(channel, {.duty = 0.2});
  source.start();
  sim.run_until(kSecond);
  source.stop();
  const auto emitted = source.frames_emitted();
  sim.run_until(2 * kSecond);
  EXPECT_EQ(source.frames_emitted(), emitted);
}

// --- The Sec. III-B claims, measured per-query on the packet tier ---

struct ErrorRates {
  double false_positive;  ///< empty neighbourhood read as non-empty
  double false_negative;  ///< positive neighbourhood read as silent
};

ErrorRates measure(group::RcdPrimitive primitive, double duty,
                   std::size_t positives, std::uint64_t seed) {
  constexpr std::size_t kNodes = 8;
  std::vector<bool> truth(kNodes, false);
  for (std::size_t i = 0; i < positives; ++i) truth[i] = true;
  group::PacketChannel::Config cfg;
  cfg.model = group::CollisionModel::kOnePlus;
  cfg.primitive = primitive;
  cfg.channel.hack = HackReceptionModel::ideal();
  cfg.interference_duty = duty;
  cfg.seed = seed;
  group::PacketChannel ch(truth, cfg);
  const auto nodes = ch.all_nodes();
  int fp = 0, fn = 0;
  const int queries = 300;
  for (int i = 0; i < queries; ++i) {
    const bool nonempty = ch.query_set(nodes).nonempty();
    if (positives == 0 && nonempty) ++fp;
    if (positives > 0 && !nonempty) ++fn;
  }
  return {static_cast<double>(fp) / queries,
          static_cast<double>(fn) / queries};
}

TEST(Interference, BackcastHasNoFalsePositives) {
  const auto rates = measure(group::RcdPrimitive::kBackcast, 0.3, 0, 7);
  EXPECT_EQ(rates.false_positive, 0.0);
}

TEST(Interference, PollcastSuffersFalsePositives) {
  // CCA-based RCD reads foreign energy in the vote window as a vote.
  const auto rates = measure(group::RcdPrimitive::kPollcast, 0.3, 0, 7);
  EXPECT_GT(rates.false_positive, 0.05);
}

TEST(Interference, BackcastFalseNegativesGrowWithDuty) {
  const auto calm = measure(group::RcdPrimitive::kBackcast, 0.0, 2, 9);
  const auto noisy = measure(group::RcdPrimitive::kBackcast, 0.4, 2, 9);
  EXPECT_EQ(calm.false_negative, 0.0);
  EXPECT_GT(noisy.false_negative, calm.false_negative);
}

TEST(Interference, NoInterferenceNoErrorsEitherPrimitive) {
  for (const auto primitive :
       {group::RcdPrimitive::kBackcast, group::RcdPrimitive::kPollcast}) {
    const auto empty = measure(primitive, 0.0, 0, 11);
    const auto full = measure(primitive, 0.0, 4, 11);
    EXPECT_EQ(empty.false_positive, 0.0);
    EXPECT_EQ(full.false_negative, 0.0);
  }
}

TEST(Interference, BackcastSessionsOnANegativeWorldNeverSayYes) {
  // Whole 2tBins sessions under 25% cross-traffic terminate, and backcast
  // conjures no positive out of foreign noise: every bin reads empty.
  group::PacketChannel::Config cfg;
  cfg.channel.hack = HackReceptionModel::ideal();
  cfg.interference_duty = 0.25;
  cfg.seed = 2;
  group::PacketChannel ch(std::vector<bool>(8, false), cfg);
  group::InstrumentedChannel traced(ch);
  RngStream rng(cfg.seed);
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  for (int run = 0; run < 15; ++run) {
    traced.clear();
    EXPECT_FALSE(
        core::run_two_t_bins(traced, ch.all_nodes(), 2, rng, opts).decision);
    for (const auto& record : traced.transcript())
      EXPECT_FALSE(record.result.nonempty());
  }
}

TEST(Interference, PacketChannelCountsForeignFrames) {
  group::PacketChannel::Config cfg;
  cfg.channel.hack = HackReceptionModel::ideal();
  cfg.interference_duty = 0.2;
  group::PacketChannel ch(std::vector<bool>(4, true), cfg);
  for (int i = 0; i < 50; ++i) ch.query_set(ch.all_nodes());
  EXPECT_GT(ch.interference_frames(), 0u);
}

}  // namespace
}  // namespace tcast::radio
