// Minimized chaos reproducers, checked in as emitted by the shrinker's
// regression stanza. Each stanza replays a scenario+trace pair that once
// tripped a conformance monitor, pinning the bug class forever.
//
// Reproducer0: the engine's loss-soundness hole. Replayed on a channel
// that claims no loss (lossy=0), the "activity ⇒ ≥2" credit is on, and
// three downgraded captures are enough to make 2tbins count three lone
// positives twice each and answer "yes" on an x=10 < t=12 instance. Found
// by the seeded campaign of lossless_replay.hpp; shrunk 4 -> 3 events (29
// probes).
#include <gtest/gtest.h>

#include "chaos/chaos_engine.hpp"

namespace tcast::chaos {
namespace {

TEST(ChaosRegressions, Reproducer0) {
  const auto sc = tcast::chaos::ChaosScenario::parse(
      "algo=2tbins;n=18;x=10;t=12;model=2+;tier=exact;"
      "seed=4421707398744400091;"
      "plan=ge=0.3:0.2:0:0.8,downgrade=0.4,seed=1054781993601844392");
  const auto trace = tcast::faults::FaultTrace::parse(
      "lossy=0,0:dg:17,1:dg:14,12:dg:12");
  ASSERT_TRUE(sc.has_value());
  ASSERT_TRUE(trace.has_value());
  const auto rep = tcast::chaos::replay_session(*sc, *trace);
  EXPECT_FALSE(rep.violations.empty());
  // The violation is specifically the false "yes" the lie allows.
  EXPECT_TRUE(rep.false_yes());
}

TEST(ChaosRegressions, Reproducer0IsFixedByTheGuardedGate) {
  // The identical scenario+trace replayed on a channel that declares its
  // loss (lossy=1) replays clean: the soundness gate no longer credits
  // activity as ≥2 under loss.
  const auto sc = *tcast::chaos::ChaosScenario::parse(
      "algo=2tbins;n=18;x=10;t=12;model=2+;tier=exact;"
      "seed=4421707398744400091;"
      "plan=ge=0.3:0.2:0:0.8,downgrade=0.4,seed=1054781993601844392");
  const auto trace = *tcast::faults::FaultTrace::parse(
      "lossy=1,0:dg:17,1:dg:14,12:dg:12");
  const auto rep = tcast::chaos::replay_session(sc, trace);
  EXPECT_TRUE(rep.violations.empty());
  EXPECT_FALSE(rep.false_yes());
}

}  // namespace
}  // namespace tcast::chaos
