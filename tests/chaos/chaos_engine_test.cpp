// ChaosEngine: scenario spec round-trips, single-session verdicts, and the
// campaign loop — zero violations for the guarded engine across the grid,
// deterministic results whatever the worker count, and real violations the
// moment a replay re-opens the known loss-soundness hole.
#include <gtest/gtest.h>

#include "chaos/chaos_engine.hpp"
#include "lossless_replay.hpp"

namespace tcast::chaos {
namespace {

TEST(ChaosScenario, SpecRoundTripsExactly) {
  ChaosScenario sc;
  sc.algorithm = "abns:2t";
  sc.n = 33;
  sc.x = 12;
  sc.t = 9;
  sc.model = group::CollisionModel::kTwoPlus;
  sc.tier = Tier::kPacket;
  sc.seed = 77;
  sc.plan = *faults::FaultPlan::parse("ge=0.02:0.25:0:0.7,crash=0.01,seed=5");
  sc.retry = core::RetryPolicy::fixed(3);
  const auto back = ChaosScenario::parse(sc.spec());
  ASSERT_TRUE(back.has_value()) << sc.spec();
  EXPECT_EQ(*back, sc) << sc.spec();
}

TEST(ChaosScenario, DefaultFieldsRoundTrip) {
  const ChaosScenario sc;
  const auto back = ChaosScenario::parse(sc.spec());
  ASSERT_TRUE(back.has_value()) << sc.spec();
  EXPECT_EQ(*back, sc);
}

TEST(ChaosScenario, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "",
      "algo=2tbins;n",          // token without '='
      "algo=;n=4",              // empty algorithm
      "algo=2tbins;n=x",        // non-numeric
      "algo=2tbins;model=3+",   // unknown model
      "algo=2tbins;tier=cloud", // unknown tier
      "algo=2tbins;plan=bogus=1",
      "algo=2tbins;retry=sometimes",
      "algo=2tbins;unsafe=1",   // retired key
      "algo=2tbins;n=4;x=9",    // x > n
      "algo=2tbins;what=1",     // unknown key
      "algo=2tbins;lp=1",       // retired key
      "algo=2tbins;n=-1;x=0;t=1",  // negative count (was read as 2^64 - 1)
      "algo=2tbins;seed=+5",    // explicit sign
      "algo=2tbins;t= 4",       // leading space
  };
  for (const char* text : bad)
    EXPECT_FALSE(ChaosScenario::parse(text).has_value()) << text;
}

TEST(ChaosEngine, CleanSessionHasNoViolationsOnBothTiers) {
  for (const Tier tier : {Tier::kExact, Tier::kPacket}) {
    ChaosScenario sc;
    sc.algorithm = "2tbins";
    sc.n = 8;
    sc.x = 5;
    sc.t = 4;
    sc.tier = tier;
    sc.seed = 3;
    const auto rep = run_session(sc);
    EXPECT_TRUE(rep.ok()) << to_string(tier) << ": "
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front().message);
    EXPECT_TRUE(rep.outcome.decision);  // x >= t, exact stack
    EXPECT_TRUE(rep.trace.events.empty());
  }
}

TEST(ChaosEngine, SessionsAreDeterministic) {
  ChaosScenario sc;
  sc.algorithm = "expinc";
  sc.n = 16;
  sc.x = 6;
  sc.t = 5;
  sc.seed = 19;
  sc.plan = *faults::FaultPlan::parse("iid=0.1,crash=0.02,seed=8");
  const auto a = run_session(sc);
  const auto b = run_session(sc);
  EXPECT_EQ(a.outcome.decision, b.outcome.decision);
  EXPECT_EQ(a.outcome.queries, b.outcome.queries);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.algo_rng_probe, b.algo_rng_probe);
}

CampaignConfig small_campaign(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.algorithms = {"2tbins", "expinc"};
  cfg.tiers = {Tier::kExact};
  cfg.sessions_per_cell = 3;
  cfg.seed = seed;
  cfg.max_exact_n = 24;
  return cfg;
}

TEST(ChaosEngine, GuardedCampaignReportsZeroViolations) {
  const auto result = run_campaign(small_campaign(101));
  EXPECT_EQ(result.sessions,
            2u * default_plan_grid(101).size() * 3u);
  EXPECT_TRUE(result.violating.empty())
      << result.violating.front().scenario.spec();
  EXPECT_EQ(result.false_yes, 0u);  // loss can never manufacture positives
  EXPECT_GT(result.faults_injected, 0u);
}

TEST(ChaosEngine, CampaignIsDeterministicAcrossWorkerCounts) {
  ThreadPool solo(1);
  auto cfg = small_campaign(7);
  const auto wide = run_campaign(cfg);
  cfg.pool = &solo;
  const auto narrow = run_campaign(cfg);
  EXPECT_EQ(wide.sessions, narrow.sessions);
  EXPECT_EQ(wide.faults_injected, narrow.faults_injected);
  EXPECT_EQ(wide.false_yes, narrow.false_yes);
  EXPECT_EQ(wide.false_no, narrow.false_no);
  ASSERT_EQ(wide.violating.size(), narrow.violating.size());
  for (std::size_t i = 0; i < wide.violating.size(); ++i) {
    EXPECT_EQ(wide.violating[i].scenario, narrow.violating[i].scenario);
    EXPECT_EQ(wide.violating[i].trace, narrow.violating[i].trace);
  }
}

TEST(ChaosEngine, BrokenGateCampaignIsCaughtByTheMonitors) {
  // The guarded campaign is clean. Replay each session's trace on a
  // channel that claims no loss (activity counted as ≥2 again) and the
  // monitors must catch the hole in the act: false "yes" verdicts, each
  // flagged.
  const auto cfg = gate_hole_campaign();
  const auto live = run_campaign(cfg);
  EXPECT_TRUE(live.violating.empty());
  EXPECT_EQ(live.false_yes, 0u);
  std::size_t false_yes = 0;
  for (const auto& sc : campaign_scenarios(cfg)) {
    const auto rep = replay_claiming_no_loss(run_session(sc));
    if (!rep.false_yes()) continue;
    ++false_yes;
    EXPECT_FALSE(rep.violations.empty()) << sc.spec();
  }
  EXPECT_GT(false_yes, 0u);
}

}  // namespace
}  // namespace tcast::chaos
