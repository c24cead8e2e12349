#include "conformance/harness.hpp"

#include <array>
#include <optional>
#include <utility>

#include "analysis/bounds.hpp"
#include "common/check.hpp"
#include "core/baselines.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::conformance {
namespace {

// Seed-stream layout: every run of a scenario derives all randomness from
// scenario.seed through fixed stream ids, so failures replay exactly.
constexpr std::uint64_t kPositivesStream = 0;
constexpr std::uint64_t kChannelStream = 1;   // capture draws
constexpr std::uint64_t kAlgorithmStream = 2; // binning + sampling hints

/// A lossy scenario's false negatives: an i.i.d. fault plan on the
/// scenario's seed, drawn from the fault injector's private stream.
faults::FaultPlan loss_plan(const Scenario& sc) {
  faults::FaultPlan plan;
  plan.process = faults::FaultPlan::LossProcess::kIid;
  plan.loss = sc.loss_prob;
  plan.seed = sc.seed;
  return plan;
}

std::vector<bool> draw_positives(const Scenario& sc) {
  std::vector<bool> positive(sc.n, false);
  RngStream rng(sc.seed, kPositivesStream);
  for (const NodeId id : rng.sample_subset(sc.n, sc.x))
    positive[static_cast<std::size_t>(id)] = true;
  return positive;
}

/// One run's channel stack: the exact channel over `positive`, under a
/// FaultyChannel when the scenario is lossy, plus the channel and algorithm
/// streams on the scenario's seed. The participants are `ids` when given,
/// else every node of the exact channel (its cached all_nodes(), no copy).
class ScenarioStack {
 public:
  ScenarioStack(const Scenario& sc, std::vector<bool> positive,
                std::optional<std::vector<NodeId>> ids = std::nullopt)
      : channel_rng_(sc.seed, kChannelStream),
        algo_rng_(sc.seed, kAlgorithmStream),
        exact_(std::move(positive), channel_rng_, {sc.model, nullptr}),
        ids_(std::move(ids)),
        participants_(ids_ ? std::span<const NodeId>(*ids_)
                           : exact_.all_nodes()) {
    if (sc.lossy()) lossy_.emplace(exact_, participants_, loss_plan(sc));
  }

  group::QueryChannel& channel() {
    return lossy_ ? static_cast<group::QueryChannel&>(*lossy_) : exact_;
  }
  std::span<const NodeId> participants() const { return participants_; }
  RngStream& algo_rng() { return algo_rng_; }

 private:
  RngStream channel_rng_;  // capture draws; borrowed by exact_
  RngStream algo_rng_;
  group::ExactChannel exact_;
  std::optional<std::vector<NodeId>> ids_;
  std::span<const NodeId> participants_;
  std::optional<faults::FaultyChannel> lossy_;
};

/// The scenario's instance with ids relabeled through id → offset +
/// id·stride (order-preserving): ground truth over the relabeled universe,
/// and the relabeled participant ids.
std::pair<std::vector<bool>, std::vector<NodeId>> relabel(const Scenario& sc,
                                                          NodeId offset,
                                                          NodeId stride) {
  TCAST_CHECK(stride >= 1);
  const auto base_positive = draw_positives(sc);
  const std::size_t top =
      sc.n == 0 ? 1
                : static_cast<std::size_t>(offset) +
                      (sc.n - 1) * static_cast<std::size_t>(stride) + 1;
  std::vector<bool> positive(top, false);
  std::vector<NodeId> ids;
  ids.reserve(sc.n);
  for (std::size_t i = 0; i < sc.n; ++i) {
    const NodeId id = offset + static_cast<NodeId>(i) * stride;
    positive[static_cast<std::size_t>(id)] = base_positive[i];
    ids.push_back(id);
  }
  return {std::move(positive), std::move(ids)};
}

struct BoundEntry {
  std::string_view name;
  double (*bound)(std::size_t n, std::size_t t);
};

// count:* adapters spend an estimation phase and then (at most) one exact
// verification session, so their ceiling is the estimator bound plus the
// universal engine bound.
double sampling_adapter_bound(std::size_t n, std::size_t t) {
  return core::sampling_estimator_query_bound(n) +
         analysis::engine_query_bound(n, t);
}

double beep_exact_adapter_bound(std::size_t n, std::size_t t) {
  return core::beep_exact_query_bound(n) +
         analysis::engine_query_bound(n, t);
}

// Name-specific worst-case bounds; algorithms not listed fall back to the
// universal engine bound. Extend this table when registering an algorithm
// with a tighter (or, as for the adapters, composed) guarantee.
constexpr std::array<BoundEntry, 2> kBoundTable{{
    {"count:nz-geom", &sampling_adapter_bound},
    {"count:beep-exact", &beep_exact_adapter_bound},
}};

}  // namespace

double registered_query_bound(std::string_view algorithm, std::size_t n,
                              std::size_t t) {
  for (const auto& entry : kBoundTable)
    if (entry.name == algorithm) return entry.bound(n, t);
  return analysis::engine_query_bound(n, t);
}

double registered_count_query_bound(std::string_view estimator,
                                    std::size_t n) {
  if (estimator == "beep-exact") return core::beep_exact_query_bound(n);
  return core::sampling_estimator_query_bound(n);
}

std::string ConformanceReport::summary() const {
  if (violations.empty()) return {};
  std::string s = algorithm + " on [" + scenario.describe() + "]:";
  for (const auto& v : violations)
    s += std::string("\n  [") + to_string(v.category) + "] " + v.message;
  return s;
}

ConformanceReport check_algorithm(const core::AlgorithmSpec& spec,
                                  const Scenario& scenario) {
  ConformanceReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;

  ScenarioStack stack(scenario, draw_positives(scenario));
  CheckedChannel checked(
      stack.channel(), stack.participants(),
      registered_query_bound(spec.name, scenario.n, scenario.t));
  report.outcome = spec.run(checked, stack.participants(), scenario.t,
                            stack.algo_rng(), scenario.engine_options());
  checked.check_outcome(scenario.t, report.outcome);
  report.violations = checked.violations();
  return report;
}

std::vector<ConformanceReport> differential_check(const Scenario& scenario) {
  // Differential mode runs loss-free: under loss the algorithms may
  // legitimately disagree (each sees its own false negatives).
  Scenario exact_sc = scenario;
  exact_sc.loss_prob = 0.0;
  const bool truth = exact_sc.ground_truth();

  std::vector<ConformanceReport> reports;
  for (const auto& spec : core::algorithm_registry()) {
    auto report = check_algorithm(spec, exact_sc);
    if (report.outcome.decision != truth) {
      report.violations.push_back(
          {Violation::Category::kOutcome,
           "differential: decision diverges from the oracle ground truth"});
    }
    reports.push_back(std::move(report));
  }

  // The sequential-ordering baseline answers from (n, x, t) directly; it is
  // the registry-independent reference the whole stream is anchored to.
  ConformanceReport seq;
  seq.scenario = exact_sc;
  seq.algorithm = "sequential-baseline";
  RngStream seq_rng(exact_sc.seed, kAlgorithmStream + 1);
  const auto baseline = core::run_sequential_baseline(exact_sc.n, exact_sc.x,
                                                      exact_sc.t, seq_rng);
  seq.outcome.decision = baseline.decision;
  seq.outcome.queries = baseline.slots;
  if (seq.outcome.decision != truth) {
    seq.violations.push_back(
        {Violation::Category::kOutcome,
         "differential: sequential baseline diverges from ground truth"});
  }
  reports.push_back(std::move(seq));
  return reports;
}

namespace {

/// Runs `spec` on the instance with ids relabeled through id → offset +
/// id·stride (order-preserving). offset=0, stride=1 is the identity run.
core::ThresholdOutcome run_relabeled(const core::AlgorithmSpec& spec,
                                     const Scenario& sc, NodeId offset,
                                     NodeId stride) {
  auto [positive, ids] = relabel(sc, offset, stride);
  ScenarioStack stack(sc, std::move(positive), std::move(ids));
  return spec.run(stack.channel(), stack.participants(), sc.t,
                  stack.algo_rng(), sc.engine_options());
}

}  // namespace

ConformanceReport metamorphic_relabel_check(const core::AlgorithmSpec& spec,
                                            const Scenario& scenario,
                                            NodeId offset, NodeId stride) {
  ConformanceReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;
  const auto base = run_relabeled(spec, scenario, 0, 1);
  const auto mapped = run_relabeled(spec, scenario, offset, stride);
  report.outcome = base;
  if (base.decision != mapped.decision) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "relabeling ids (offset=" + std::to_string(offset) + ", stride=" +
             std::to_string(stride) + ") changed the decision"});
  }
  if (base.queries != mapped.queries) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "relabeling ids changed the query count: " +
             std::to_string(base.queries) + " vs " +
             std::to_string(mapped.queries)});
  }
  return report;
}

ConformanceReport metamorphic_bin_order_check(const core::AlgorithmSpec& spec,
                                              const Scenario& scenario) {
  // Bin-order relabeling is only an equivalence on the exact tier: under
  // loss the two runs see different loss draws and may legitimately differ.
  Scenario a = scenario;
  a.loss_prob = 0.0;
  Scenario b = a;
  a.ordering = core::BinOrdering::kInOrder;
  b.ordering = core::BinOrdering::kNonEmptyFirst;

  ConformanceReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;
  const auto in_order = check_algorithm(spec, a);
  const auto reordered = check_algorithm(spec, b);
  report.outcome = in_order.outcome;
  if (in_order.outcome.decision != reordered.outcome.decision) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "relabeling the bin query order changed the decision"});
  }
  return report;
}

ConformanceReport metamorphic_seed_shift_check(
    const core::AlgorithmSpec& spec, const Scenario& scenario,
    std::uint64_t seed_shift, bool deterministic_counts) {
  // The deterministic configuration: contiguous bins, in-order accounting,
  // 1+ model, no loss — nothing on the engine path consumes the RNG.
  Scenario a = scenario;
  a.scheme = core::BinningScheme::kContiguous;
  a.ordering = core::BinOrdering::kInOrder;
  a.model = group::CollisionModel::kOnePlus;
  a.loss_prob = 0.0;
  Scenario b = a;
  b.seed = a.seed + seed_shift;
  // The positive set must be the same instance in both runs; pin it by
  // drawing from the unshifted seed.
  const auto base_positive = draw_positives(a);

  const auto run_with = [&](const Scenario& sc) {
    ScenarioStack stack(sc, base_positive);
    return spec.run(stack.channel(), stack.participants(), sc.t,
                    stack.algo_rng(), sc.engine_options());
  };

  ConformanceReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;
  const auto base = run_with(a);
  const auto shifted = run_with(b);
  report.outcome = base;
  if (base.decision != shifted.decision) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "seed shift changed the decision under the deterministic "
         "configuration"});
  }
  if (deterministic_counts && base.queries != shifted.queries) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "seed shift changed the query count of a deterministic "
         "algorithm: " +
             std::to_string(base.queries) + " vs " +
             std::to_string(shifted.queries)});
  }
  return report;
}

bool has_deterministic_counts(std::string_view algorithm) {
  // The sampling hint of probabilistic ABNS consumes the RNG (and so picks
  // a different branch per seed) even under the deterministic engine
  // configuration; the count:* adapters likewise burn RNG in their
  // estimation phase (sampled probes, or the exact counter's shuffle).
  // Everything else is RNG-free there.
  return algorithm != "prob-abns" && !algorithm.starts_with("count:");
}

std::string CountingReport::summary() const {
  if (violations.empty()) return {};
  std::string s = algorithm + " (counting) on [" + scenario.describe() +
                  "] x=" + std::to_string(truth) + ":";
  for (const auto& v : violations)
    s += std::string("\n  [") + to_string(v.category) + "] " + v.message;
  return s;
}

CountingReport check_counting_algorithm(const core::CountAlgorithmSpec& spec,
                                        const Scenario& scenario) {
  CountingReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;

  ScenarioStack stack(scenario, draw_positives(scenario));
  CheckedChannel checked(stack.channel(), stack.participants(),
                         registered_count_query_bound(spec.name, scenario.n));
  report.outcome =
      spec.run(checked, stack.participants(), stack.algo_rng(), {});
  checked.check_count_outcome(report.outcome);
  report.truth = checked.true_positive_count();
  report.violations = checked.violations();
  return report;
}

std::vector<CountingReport> counting_differential_check(
    const Scenario& scenario) {
  // Loss-free, like the threshold differential: under loss the estimators
  // legitimately diverge (each sees its own false negatives).
  Scenario exact_sc = scenario;
  exact_sc.loss_prob = 0.0;

  std::vector<CountingReport> reports;
  for (const auto& spec : core::counting_registry()) {
    auto report = check_counting_algorithm(spec, exact_sc);
    if (spec.exact &&
        report.outcome.estimate != static_cast<double>(report.truth)) {
      report.violations.push_back(
          {Violation::Category::kOutcome,
           "differential: exact estimator returned " +
               std::to_string(report.outcome.estimate) +
               " but ground truth x=" + std::to_string(report.truth)});
    }
    if (report.truth == 0 && !report.outcome.exact) {
      report.violations.push_back(
          {Violation::Category::kOutcome,
           "differential: x = 0 must be proven exactly on the loss-free "
           "tier (the whole-set anchor is silent)"});
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

namespace {

core::CountOutcome run_count_relabeled(const core::CountAlgorithmSpec& spec,
                                       const Scenario& sc, NodeId offset,
                                       NodeId stride) {
  auto [positive, ids] = relabel(sc, offset, stride);
  ScenarioStack stack(sc, std::move(positive), std::move(ids));
  return spec.run(stack.channel(), stack.participants(), stack.algo_rng(),
                  {});
}

}  // namespace

CountingReport metamorphic_count_relabel_check(
    const core::CountAlgorithmSpec& spec, const Scenario& scenario,
    NodeId offset, NodeId stride) {
  CountingReport report;
  report.scenario = scenario;
  report.algorithm = spec.name;
  const auto base = run_count_relabeled(spec, scenario, 0, 1);
  const auto mapped = run_count_relabeled(spec, scenario, offset, stride);
  report.outcome = base;
  if (base.estimate != mapped.estimate) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "relabeling ids (offset=" + std::to_string(offset) + ", stride=" +
             std::to_string(stride) + ") changed the estimate: " +
             std::to_string(base.estimate) + " vs " +
             std::to_string(mapped.estimate)});
  }
  if (base.queries != mapped.queries) {
    report.violations.push_back(
        {Violation::Category::kOutcome,
         "relabeling ids changed the counting query count: " +
             std::to_string(base.queries) + " vs " +
             std::to_string(mapped.queries)});
  }
  return report;
}

void WrongAnswerTally::record(std::string_view algorithm,
                              const Scenario& scenario,
                              const core::ThresholdOutcome& outcome) {
  auto& per = by_algorithm_[std::string(algorithm)];
  ++per.runs;
  ++runs_;
  const bool truth = scenario.ground_truth();
  if (outcome.decision == truth) return;
  if (outcome.decision) {
    ++per.false_yes;
    ++false_yes_;
  } else {
    ++per.false_no;
    ++false_no_;
  }
  wrong_by_loss_.add(scenario.loss_prob);
}

std::string WrongAnswerTally::report() const {
  std::string s = "wrong answers over " + std::to_string(runs_) + " runs: " +
                  std::to_string(false_yes_) + " false-yes, " +
                  std::to_string(false_no_) + " false-no\n";
  for (const auto& [name, per] : by_algorithm_) {
    s += "  " + name + ": " + std::to_string(per.runs) + " runs, " +
         std::to_string(per.false_yes) + " false-yes, " +
         std::to_string(per.false_no) + " false-no\n";
  }
  if (false_yes_ + false_no_ > 0) {
    s += "wrong answers by scenario loss rate:\n";
    s += wrong_by_loss_.ascii();
  }
  return s;
}

}  // namespace tcast::conformance
