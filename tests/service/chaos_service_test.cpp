// Service-level chaos: trace codec, campaign determinism, the seeded
// zero-violation battery, and the ddmin shrinker's contract.
#include "service/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tcast::service {
namespace {

TEST(ServiceOpCodec, EveryKindRoundTrips) {
  std::vector<ServiceOp> ops;
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kLoad;
    op.pop = "p0";
    op.n = 64;
    op.x = 20;
    op.seed = 99;
    ops.push_back(op);
  }
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kQuery;
    op.pop = "p0";
    op.t = 16;
    op.deadline_ms = 5;
    op.approx = ApproxMode::kNever;
    ops.push_back(op);
  }
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kKill;
    op.shard = 1;
    ops.push_back(op);
  }
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kReboot;
    op.shard = 1;
    ops.push_back(op);
  }
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kAdvance;
    op.advance_us = 2500;
    ops.push_back(op);
  }
  {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kPump;
    ops.push_back(op);
  }

  for (const ServiceOp& op : ops) {
    const auto parsed = ServiceOp::parse(op.encode());
    ASSERT_TRUE(parsed.has_value()) << op.encode();
    EXPECT_EQ(*parsed, op) << op.encode();
  }

  const auto trace = parse_trace(encode_trace(ops));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(*trace, ops);
}

TEST(ServiceOpCodec, RejectsMalformedOps) {
  const char* bad[] = {
      "",
      "explode",
      "load pop=p n=12abc x=1 seed=1",  // trailing garbage (was read as 12)
      "load pop=p n=-1 x=0 seed=1",     // negative count
      "load pop=p n=+4 x=0 seed=1",     // explicit sign
      "load pop=p n=4 x=0 seed=99999999999999999999999",  // overflow
      "query pop=p t=",                 // empty value
      "advance us=1e3",                 // not an integer
      "kill shard",                     // no '='
      "kill =1",                        // no key
      "reboot shard=1 bogus=2",         // unknown key
      "query pop=p t=4 approx=maybe",   // unknown mode
  };
  for (const char* line : bad)
    EXPECT_FALSE(ServiceOp::parse(line).has_value()) << line;
}

TEST(ServiceChaos, OpGenerationIsAPureFunctionOfTheSeed) {
  ServiceCampaignConfig cfg;
  cfg.seed = 42;
  cfg.ops = 120;
  const auto a = generate_service_ops(cfg);
  const auto b = generate_service_ops(cfg);
  EXPECT_EQ(a, b);

  cfg.seed = 43;
  EXPECT_NE(generate_service_ops(cfg), a);

  // The script actually exercises the fault surface.
  const auto has = [&](ServiceOp::Kind k) {
    return std::any_of(a.begin(), a.end(),
                       [&](const ServiceOp& op) { return op.kind == k; });
  };
  EXPECT_TRUE(has(ServiceOp::Kind::kQuery));
  EXPECT_TRUE(has(ServiceOp::Kind::kKill));
  EXPECT_TRUE(has(ServiceOp::Kind::kReboot));
  EXPECT_TRUE(has(ServiceOp::Kind::kPump));
}

TEST(ServiceChaos, SeededCampaignsUpholdTheServiceContract) {
  // The robustness acceptance bar: shards die and reboot mid-query,
  // deadlines expire inside rounds, queues overflow — and still every
  // request resolves, no exact verdict is wrong, every estimate is tagged
  // and within its claimed band at the acceptance floor.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ServiceCampaignConfig cfg;
    cfg.seed = seed;
    cfg.ops = 250;
    const auto result = run_service_campaign(cfg);
    EXPECT_TRUE(result.report.ok())
        << "seed " << seed << ": " << result.report.summary();
    EXPECT_TRUE(result.minimized.empty());
    EXPECT_EQ(result.report.hangs, 0u) << "seed " << seed;
    EXPECT_EQ(result.report.wrong_exact, 0u) << "seed " << seed;
    EXPECT_EQ(result.report.untagged_approx, 0u) << "seed " << seed;
    EXPECT_EQ(result.report.conformance_violations, 0u) << "seed " << seed;
    // The campaign must actually have exercised the service.
    EXPECT_GT(result.report.submitted, 50u) << "seed " << seed;
    EXPECT_EQ(result.report.resolved, result.report.submitted);
  }
}

TEST(ServiceChaos, ReplayIsDeterministic) {
  ServiceCampaignConfig cfg;
  cfg.seed = 5;
  cfg.ops = 150;
  const auto ops = generate_service_ops(cfg);
  const auto a = run_service_ops(ops, cfg);
  const auto b = run_service_ops(ops, cfg);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.ok_exact, b.ok_exact);
  EXPECT_EQ(a.ok_approx, b.ok_approx);
  EXPECT_EQ(a.typed_errors, b.typed_errors);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(ServiceChaos, ShrinkerFindsALocallyMinimalReproducer) {
  // Synthetic failure: "the trace contains a kill op". ddmin must shrink
  // an interleaved 60-op script to exactly one op.
  ServiceCampaignConfig cfg;
  cfg.seed = 9;
  cfg.ops = 60;
  auto ops = generate_service_ops(cfg);
  const auto failing = [](std::span<const ServiceOp> candidate) {
    return std::any_of(
        candidate.begin(), candidate.end(),
        [](const ServiceOp& op) { return op.kind == ServiceOp::Kind::kKill; });
  };
  ASSERT_TRUE(failing(ops));  // otherwise the scenario is vacuous
  const auto minimized = shrink_service_ops(std::move(ops), failing);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].kind, ServiceOp::Kind::kKill);
}

TEST(ServiceChaos, ShrinkerReturnsInputWhenPredicateNeverFires) {
  ServiceCampaignConfig cfg;
  cfg.seed = 9;
  cfg.ops = 20;
  auto ops = generate_service_ops(cfg);
  const auto original = ops;
  const auto minimized = shrink_service_ops(
      std::move(ops), [](std::span<const ServiceOp>) { return false; });
  EXPECT_EQ(minimized, original);
}

}  // namespace
}  // namespace tcast::service
