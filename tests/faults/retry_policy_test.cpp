// RetryPolicy and the engine's loss-robustness machinery: spec parsing,
// bit-exactness on lossless channels (acceptance criterion: RetryPolicy is
// free when the channel is clean), the 2+ soundness gate, and the
// retries/faults_seen accounting surfaced in ThresholdOutcome.
#include <gtest/gtest.h>

#include <vector>

#include "../always_activity_channel.hpp"
#include "core/registry.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::core {
namespace {

TEST(RetryPolicy, ParsesSpecs) {
  auto p = RetryPolicy::parse("none");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, RetryPolicy::Kind::kNone);

  p = RetryPolicy::parse("fixed:3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, RetryPolicy::Kind::kFixed);
  EXPECT_EQ(p->retries, 3u);

  p = RetryPolicy::parse("adaptive:0.001");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, RetryPolicy::Kind::kAdaptive);
  EXPECT_DOUBLE_EQ(p->target_residual, 0.001);
  EXPECT_EQ(p->max_retries, 8u);

  p = RetryPolicy::parse("adaptive:0.01:4");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->max_retries, 4u);
}

TEST(RetryPolicy, SpecRoundTrips) {
  for (const auto& policy :
       {RetryPolicy::none(), RetryPolicy::fixed(0), RetryPolicy::fixed(5),
        RetryPolicy::adaptive(1e-3), RetryPolicy::adaptive(0.05, 3)}) {
    const auto parsed = RetryPolicy::parse(policy.spec());
    ASSERT_TRUE(parsed.has_value()) << policy.spec();
    EXPECT_EQ(*parsed, policy) << policy.spec();
  }
}

TEST(RetryPolicy, RejectsMalformedSpecs) {
  const char* bad[] = {"",           "fixed",          "fixed:",
                       "fixed:-1",   "fixed:1.5",      "fixed:+2",
                       "fixed: 2",   "adaptive:",      "adaptive:0",
                       "adaptive:2", "adaptive:nan",   "adaptive:0.1:0",
                       "adaptive:0.1:+3", "bogus"};
  for (const char* text : bad)
    EXPECT_FALSE(RetryPolicy::parse(text).has_value()) << text;
}

// Acceptance criterion: on lossless channels every retry policy is
// bit-exact with the historical engine — silence is proof there and no
// policy may spend a single extra query.
TEST(RetryPolicy, LosslessChannelsAreBitExactUnderAnyPolicy) {
  const RetryPolicy policies[] = {RetryPolicy::none(), RetryPolicy::fixed(3),
                                  RetryPolicy::adaptive(1e-4)};
  for (const auto& spec : algorithm_registry()) {
    for (const auto model : {group::CollisionModel::kOnePlus,
                             group::CollisionModel::kTwoPlus}) {
      ThresholdOutcome baseline;
      bool have_baseline = false;
      for (const auto& policy : policies) {
        RngStream channel_rng(17, 1);
        RngStream algo_rng(17, 2);
        group::ExactChannel::Config ecfg;
        ecfg.model = model;
        auto exact = group::ExactChannel::with_random_positives(
            30, 11, channel_rng, ecfg);
        EngineOptions opts;
        opts.ordering = BinOrdering::kInOrder;
        opts.retry = policy;
        const auto out =
            spec.run(exact, exact.all_nodes(), 9, algo_rng, opts);
        if (!have_baseline) {
          baseline = out;
          have_baseline = true;
          continue;
        }
        EXPECT_EQ(out.decision, baseline.decision)
            << spec.name << " policy " << policy.spec();
        EXPECT_EQ(out.queries, baseline.queries)
            << spec.name << " policy " << policy.spec();
        EXPECT_EQ(out.rounds, baseline.rounds)
            << spec.name << " policy " << policy.spec();
      }
      if (have_baseline) {
        EXPECT_EQ(baseline.retries, 0u) << spec.name;
        EXPECT_EQ(baseline.faults_seen, 0u) << spec.name;
      }
    }
  }
}

TEST(RetryPolicy, SoundnessGateDisablesActivityCountsTwoUnderLoss) {
  const auto* spec = find_algorithm("2tbins");
  ASSERT_NE(spec, nullptr);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  EngineOptions opts;
  opts.ordering = BinOrdering::kInOrder;

  // Two 2+ channels that always report undecoded activity and differ only
  // in `lossy()`, so the query counts isolate the soundness gate.
  // Lossless: the first activity bin certifies ≥2 ⇒ t = 2 in one query.
  AlwaysActivityChannel clean(group::CollisionModel::kTwoPlus,
                              /*lossy=*/false);
  RngStream rng_a(3, 0);
  const auto fast = spec->run(clean, nodes, 2, rng_a, opts);
  EXPECT_TRUE(fast.decision);
  EXPECT_EQ(fast.queries, 1u);

  // Lossy: a lone undecoded reply may be hiding behind the activity, so
  // each bin only certifies ≥1 — two bins are needed for the same answer.
  AlwaysActivityChannel lossy(group::CollisionModel::kTwoPlus,
                              /*lossy=*/true);
  RngStream rng_b(3, 0);
  const auto careful = spec->run(lossy, nodes, 2, rng_b, opts);
  EXPECT_TRUE(careful.decision);
  EXPECT_EQ(careful.queries, 2u);
}

TEST(RetryPolicy, RetriesAndFaultsSeenAreSurfaced) {
  // All 12 nodes positive, t = 12: every silent bin is a lie, and with a
  // 30% i.i.d. loss plenty of them occur; the fixed policy contradicts
  // them and the outcome must account for every extra query.
  RngStream channel_rng(23, 1);
  RngStream algo_rng(23, 2);
  std::vector<bool> positive(12, true);
  group::ExactChannel exact(positive, channel_rng);
  const auto nodes = exact.all_nodes();
  faults::FaultyChannel faulty(exact, nodes,
                               *faults::FaultPlan::parse("iid=0.3,seed=23"));

  EngineOptions opts;
  opts.ordering = BinOrdering::kInOrder;
  opts.retry = RetryPolicy::fixed(3);
  const auto* spec = find_algorithm("2tbins");
  const auto out = spec->run(faulty, nodes, 12, algo_rng, opts);

  EXPECT_GT(out.retries, 0u);
  EXPECT_GT(out.faults_seen, 0u);
  EXPECT_GE(out.retries, out.faults_seen);
  EXPECT_EQ(out.queries, faulty.queries_used());
  // Every engine-detected fault is one the channel actually injected.
  EXPECT_LE(out.faults_seen,
            faulty.log().count(faults::FaultEvent::Kind::kFalseEmpty));
}

TEST(RetryPolicy, AdaptiveBudgetGrowsWithObservedLoss) {
  // Same instance, heavier loss ⇒ the adaptive estimator must spend at
  // least as many (usually more) retries to hit the same residual target.
  const auto run_with_loss = [](double loss) {
    RngStream channel_rng(29, 1);
    RngStream algo_rng(29, 2);
    std::vector<bool> positive(16, true);
    group::ExactChannel exact(positive, channel_rng);
    const auto nodes = exact.all_nodes();
    auto plan = faults::FaultPlan{};
    plan.process = faults::FaultPlan::LossProcess::kIid;
    plan.loss = loss;
    plan.seed = 29;
    faults::FaultyChannel faulty(exact, nodes, plan);
    EngineOptions opts;
    opts.ordering = BinOrdering::kInOrder;
    opts.retry = RetryPolicy::adaptive(1e-3);
    const auto* spec = find_algorithm("2tbins");
    const auto out = spec->run(faulty, nodes, 16, algo_rng, opts);
    return out;
  };
  const auto light = run_with_loss(0.05);
  const auto heavy = run_with_loss(0.4);
  EXPECT_TRUE(light.decision);
  EXPECT_GT(heavy.retries, light.retries);
}

}  // namespace
}  // namespace tcast::core
