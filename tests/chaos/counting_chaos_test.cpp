// Seeded chaos campaign over the counting portfolio: every count:* adapter,
// both tiers, loss/crash plans. The estimators' soundness contract under
// chaos is one-sided — loss and crashes may cost queries or produce a false
// "no", but no monitor violation and never a false "yes" (silence under
// loss proves nothing, so the adapters only ever credit confirmed
// evidence). `ctest -L counting` runs this with the rest of the audit; the
// nightly chaos job scales the same preset up via chaos_campaign
// --counting.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/chaos_engine.hpp"
#include "core/counting.hpp"

namespace tcast::chaos {
namespace {

TEST(CountingChaos, PresetCoversTheWholePortfolioAndBothFailureModes) {
  const auto cfg = counting_campaign_config(1);
  ASSERT_EQ(cfg.algorithms.size(), core::counting_registry().size());
  for (const auto& spec : core::counting_registry()) {
    EXPECT_NE(std::find(cfg.algorithms.begin(), cfg.algorithms.end(),
                        "count:" + spec.name),
              cfg.algorithms.end())
        << spec.name;
  }
  ASSERT_EQ(cfg.tiers.size(), 2u);
  // Plan axis: the clean control, lying silence (i.i.d. + bursty), and
  // mote death (crash, crash+reboot).
  ASSERT_EQ(cfg.plans.size(), 5u);
  EXPECT_TRUE(std::any_of(cfg.plans.begin(), cfg.plans.end(),
                          [](const auto& p) { return p.crash_rate > 0; }));
  EXPECT_TRUE(std::any_of(cfg.plans.begin(), cfg.plans.end(), [](const auto& p) {
    return p.process != faults::FaultPlan::LossProcess::kNone;
  }));
}

TEST(CountingChaos, SeededCampaignIsGreen) {
  auto cfg = counting_campaign_config(29);
  cfg.sessions_per_cell = 3;  // 3 adapters x 2 tiers x 5 plans x 3 = 90
  cfg.max_exact_n = 32;
  cfg.max_packet_n = 8;
  const auto result = run_campaign(cfg);
  EXPECT_EQ(result.sessions,
            cfg.algorithms.size() * cfg.tiers.size() * cfg.plans.size() * 3u);
  EXPECT_TRUE(result.violating.empty())
      << result.violating.front().scenario.spec() << " -> "
      << result.violating.front().violations.front().message;
  EXPECT_EQ(result.false_yes, 0u);
  EXPECT_GT(result.faults_injected, 0u);
}

TEST(CountingChaos, ViolatingFreeSessionsReplayBitIdentically) {
  // Record one lossy exact-tier session per adapter and replay it: the
  // replay must reproduce outcome, query count and fault schedule.
  for (const auto& spec : core::counting_registry()) {
    ChaosScenario sc;
    sc.algorithm = "count:" + spec.name;
    sc.n = 20;
    sc.x = 9;
    sc.t = 8;
    sc.seed = 41;
    sc.plan = *faults::FaultPlan::parse("iid=0.1,crash=0.02,seed=6");
    const auto live = run_session(sc);
    EXPECT_TRUE(live.ok()) << sc.spec();
    const auto replayed = replay_session(sc, live.trace);
    EXPECT_EQ(replayed.outcome.decision, live.outcome.decision) << sc.spec();
    EXPECT_EQ(replayed.outcome.queries, live.outcome.queries) << sc.spec();
    EXPECT_EQ(replayed.trace, live.trace) << sc.spec();
    EXPECT_EQ(replayed.algo_rng_probe, live.algo_rng_probe) << sc.spec();
  }
}

}  // namespace
}  // namespace tcast::chaos
