// Shrinker: ddmin + query compaction must turn a long violating trace into
// a 1-minimal reproducer that still trips the monitor, and the emitted
// replay spec / regression stanza must pin it down verbatim.
#include <gtest/gtest.h>

#include "chaos/shrinker.hpp"
#include "lossless_replay.hpp"

namespace tcast::chaos {
namespace {

/// The first session of a seeded campaign whose live trace, replayed with
/// its `lossy` bit cleared, answers a false "yes" (deterministic). Its
/// trace keeps `lossy` cleared, so every shrink candidate replays the lie.
SessionReport find_violation() {
  for (const auto& sc : campaign_scenarios(gate_hole_campaign())) {
    const auto rep = replay_claiming_no_loss(run_session(sc));
    if (rep.false_yes()) return rep;
  }
  ADD_FAILURE() << "seeded campaign produced no false-yes violation";
  return {};
}

TEST(Shrinker, MinimizesSeededFalseYesToAFewEvents) {
  const auto victim = find_violation();
  ASSERT_TRUE(victim.false_yes());
  const auto pred = violates_false_yes();
  const auto shrunk = shrink(victim.scenario, victim.trace, pred);
  // The acceptance bar: a minimized reproducer of at most 10 events that
  // still trips the false-"yes" monitor.
  EXPECT_LE(shrunk.trace.events.size(), 10u);
  EXPECT_LE(shrunk.trace.events.size(), shrunk.original_events);
  EXPECT_TRUE(pred(shrunk.scenario, shrunk.trace));
  // 1-minimality: removing any single remaining event kills the repro.
  for (std::size_t i = 0; i < shrunk.trace.events.size(); ++i) {
    auto candidate = shrunk.trace;
    candidate.events.erase(candidate.events.begin() +
                           static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(pred(shrunk.scenario, candidate)) << "event " << i;
  }
}

TEST(Shrinker, ShrinkIsDeterministic) {
  const auto victim = find_violation();
  const auto pred = violates_false_yes();
  const auto a = shrink(victim.scenario, victim.trace, pred);
  const auto b = shrink(victim.scenario, victim.trace, pred);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.probes, b.probes);
}

TEST(Shrinker, ReplaySpecAndStanzaPinTheReproducer) {
  const auto victim = find_violation();
  const auto shrunk =
      shrink(victim.scenario, victim.trace, violates_false_yes());
  const auto spec = shrunk.replay_spec();
  EXPECT_NE(spec.find(shrunk.scenario.spec()), std::string::npos);
  EXPECT_NE(spec.find("trace=" + shrunk.trace.to_spec()),
            std::string::npos);
  const auto stanza = shrunk.regression_stanza("GateHoleUnderGeLoss");
  EXPECT_NE(stanza.find("TEST(ChaosRegressions, GateHoleUnderGeLoss)"),
            std::string::npos);
  EXPECT_NE(stanza.find(shrunk.scenario.spec()), std::string::npos);
  EXPECT_NE(stanza.find(shrunk.trace.to_spec()), std::string::npos);
  EXPECT_NE(stanza.find("replay_session"), std::string::npos);
}

TEST(Shrinker, ChecksThePredicateHoldsOnInput) {
  ChaosScenario sc;  // clean default scenario: nothing violates
  faults::FaultTrace trace;
  EXPECT_DEATH(shrink(sc, trace, violates_any()), "predicate");
}

}  // namespace
}  // namespace tcast::chaos
