// Conformance self-test: the harness must FAIL on intentionally broken
// algorithms — a harness that cannot reject a liar proves nothing. Each
// case registers a deliberately wrong AlgorithmSpec (never in the real
// registry) and asserts the exact violation category is raised; a final
// case aims a lying *channel* at the CheckedChannel.
#include <gtest/gtest.h>

#include <algorithm>

#include "conformance/harness.hpp"
#include "group/binning.hpp"
#include "group/exact_channel.hpp"

namespace tcast::conformance {
namespace {

bool has_category(const ConformanceReport& report, Violation::Category c) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [c](const Violation& v) { return v.category == c; });
}

Scenario fixed_scenario(std::size_t n, std::size_t x, std::size_t t) {
  Scenario sc;
  sc.n = n;
  sc.x = x;
  sc.t = t;
  sc.model = group::CollisionModel::kOnePlus;
  sc.ordering = core::BinOrdering::kInOrder;
  sc.seed = 0xbadc0deULL;
  return sc;
}

TEST(ConformanceSelfTest, CatchesWrongDecision) {
  core::AlgorithmSpec broken{
      "broken-always-true", "answers true without querying", false,
      [](group::QueryChannel&, std::span<const NodeId>, std::size_t,
         RngStream&, const core::EngineOptions&) {
        core::ThresholdOutcome out;
        out.decision = true;  // a lie whenever x < t
        return out;
      },
      {}};
  const auto report = check_algorithm(broken, fixed_scenario(20, 2, 10));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_category(report, Violation::Category::kOutcome))
      << report.summary();
}

TEST(ConformanceSelfTest, CatchesRequeryOfDisposedNodes) {
  core::AlgorithmSpec broken{
      "broken-requery", "re-queries a bin it already proved empty", false,
      [](group::QueryChannel& ch, std::span<const NodeId> nodes, std::size_t,
         RngStream&, const core::EngineOptions&) {
        const std::vector<NodeId> probe = {nodes.front()};
        const auto a = group::BinAssignment::contiguous(probe, 1);
        ch.announce(a);
        ch.query_bin(a, 0);  // x = 0 ⇒ empty ⇒ bin disposed
        ch.query_bin(a, 0);  // unsound: proven-negative node re-queried
        core::ThresholdOutcome out;
        out.decision = false;
        out.queries = 2;
        return out;
      },
      {}};
  const auto report = check_algorithm(broken, fixed_scenario(8, 0, 3));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_category(report, Violation::Category::kRequery))
      << report.summary();
}

TEST(ConformanceSelfTest, CatchesNonPartitionAnnouncements) {
  core::AlgorithmSpec broken{
      "broken-partition", "announces overlapping bins and foreign nodes",
      false,
      [](group::QueryChannel& ch, std::span<const NodeId> nodes, std::size_t,
         RngStream& rng, const core::EngineOptions&) {
        // A node in two bins…
        const std::vector<NodeId> dup = {nodes[0], nodes[0], nodes[1]};
        ch.announce(group::BinAssignment::random_equal(dup, 2, rng));
        // …and a node that is not a participant at all.
        const std::vector<NodeId> foreign = {
            static_cast<NodeId>(nodes.size() + 5)};
        ch.announce(group::BinAssignment::contiguous(foreign, 1));
        core::ThresholdOutcome out;
        out.decision = false;  // correct for x < t
        return out;
      },
      {}};
  const auto report = check_algorithm(broken, fixed_scenario(8, 1, 5));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_category(report, Violation::Category::kPartition))
      << report.summary();
}

TEST(ConformanceSelfTest, CatchesWorstCaseBoundOverrun) {
  const Scenario sc = fixed_scenario(20, 15, 5);
  const auto bound = static_cast<std::size_t>(
      registered_query_bound("broken-spin", sc.n, sc.t));
  core::AlgorithmSpec broken{
      "broken-spin", "burns queries far past the registered bound", false,
      [bound](group::QueryChannel& ch, std::span<const NodeId> nodes,
              std::size_t, RngStream&, const core::EngineOptions&) {
        for (std::size_t i = 0; i < bound + 5; ++i) ch.query_set(nodes);
        core::ThresholdOutcome out;
        out.decision = true;  // correct for x ≥ t, but at an absurd cost
        out.queries = ch.queries_used();
        return out;
      },
      {}};
  const auto report = check_algorithm(broken, sc);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_category(report, Violation::Category::kBound))
      << report.summary();
}

TEST(ConformanceSelfTest, CatchesQueryAccountingDrift) {
  core::AlgorithmSpec broken{
      "broken-accounting", "reports fewer queries than it spent", false,
      [](group::QueryChannel& ch, std::span<const NodeId> nodes, std::size_t,
         RngStream&, const core::EngineOptions&) {
        ch.query_set(nodes);
        core::ThresholdOutcome out;
        out.decision = true;
        out.queries = 0;  // lies about the paper's cost metric
        return out;
      },
      {}};
  const auto report = check_algorithm(broken, fixed_scenario(12, 9, 4));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_category(report, Violation::Category::kOutcome))
      << report.summary();
}

// A channel that reports silence on non-empty bins while claiming exact
// semantics — the CheckedChannel must flag the false negative itself.
class LyingChannel final : public group::QueryChannel {
 public:
  explicit LyingChannel(group::ExactChannel& truth)
      : QueryChannel(truth.model()), truth_(&truth) {}

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return truth_->oracle_positive_count(nodes);
  }

 protected:
  group::BinQueryResult do_query_set(std::span<const NodeId>) override {
    return group::BinQueryResult::empty();  // silence, whatever the truth
  }

 private:
  group::ExactChannel* truth_;
};

TEST(ConformanceSelfTest, CatchesLyingChannels) {
  RngStream rng(7, 0);
  auto exact = group::ExactChannel::with_random_positives(10, 6, rng);
  LyingChannel liar(exact);
  CheckedChannel checked(liar, exact.all_nodes());
  const auto r = checked.query_set(exact.all_nodes());
  EXPECT_EQ(r.kind, group::BinQueryResult::Kind::kEmpty);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.violations().front().category,
            Violation::Category::kTruth);
}

// A 2+ channel that answers undecoded activity on every bin and declares
// lossy() as told. Activity on a bin with one real positive means a lone
// reply failed to decode, which only a lossy channel may do.
class UndecodedActivityChannel final : public group::QueryChannel {
 public:
  UndecodedActivityChannel(group::ExactChannel& truth, bool lossy)
      : QueryChannel(group::CollisionModel::kTwoPlus),
        truth_(&truth),
        lossy_(lossy) {}

  bool lossy() const override { return lossy_; }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return truth_->oracle_positive_count(nodes);
  }

 protected:
  group::BinQueryResult do_query_set(std::span<const NodeId>) override {
    return group::BinQueryResult::activity();
  }

 private:
  group::ExactChannel* truth_;
  bool lossy_;
};

TEST(ConformanceSelfTest, ReadsLossSemanticsFromTheChannel) {
  RngStream rng(13, 0);
  group::ExactChannel::Config ecfg;
  ecfg.model = group::CollisionModel::kTwoPlus;
  group::ExactChannel exact({true, false, false, false}, rng, ecfg);
  const NodeId one_positive[] = {0, 1};

  UndecodedActivityChannel lossless(exact, /*lossy=*/false);
  CheckedChannel strict(lossless, exact.all_nodes());
  strict.query_set(one_positive);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.violations().front().category,
            Violation::Category::kTruth);

  UndecodedActivityChannel lossy(exact, /*lossy=*/true);
  CheckedChannel lenient(lossy, exact.all_nodes());
  lenient.query_set(one_positive);
  EXPECT_TRUE(lenient.ok());
}

}  // namespace
}  // namespace tcast::conformance
