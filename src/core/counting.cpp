#include "core/counting.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/abns.hpp"
#include "core/aggregate.hpp"
#include "core/two_t_bins.hpp"
#include "group/binning.hpp"

namespace tcast::core {

namespace {

/// One sampled-inclusion probe on `participants`, drawn into `bin` (reused
/// across a census's probes); a 2+ capture is a decoded positive identity,
/// appended to `confirmed`.
group::BinQueryResult probe(group::QueryChannel& channel,
                            std::span<const NodeId> participants, double q,
                            RngStream& rng, group::BinAssignment& bin,
                            std::vector<NodeId>& confirmed) {
  bin.assign_sampled(participants, q, rng);
  const auto result = channel.query_set(bin.bin(0));
  if (result.kind == group::BinQueryResult::Kind::kCaptured)
    confirmed.push_back(result.captured);
  return result;
}

/// Probes per level of nz-geom's rough doubling scan.
constexpr std::size_t kScanProbes = 3;

/// Hoeffding-sized repeat count for the refinement phase: |ŝ − s| ≤ γ with
/// probability ≥ 1 − 2·exp(−2Rγ²). Near the operating point s ≈ 1/2 a γ
/// deviation of the silence rate becomes ≈ 2γ/ln2 ≈ 2.9γ relative error of
/// x̂ (|dx/ds| = 1/(s·|ln(1−q*)|) ≈ 2x/ln2 at s = 1/2, q*x ≈ ln2), so
/// hitting ε needs γ ≈ ε/3 and R ≈ ln(2/δ)·(3/ε)²/2. We keep an extra
/// safety factor (the rough scan only pins q* within a factor ≈ 2 of the
/// ideal point, degrading the constant): R = ⌈4.5·ln(2/δ)/ε²⌉, which at
/// (kCountEpsilon, kCountDelta) = (0.35, 0.1) is ⌈110.05⌉.
constexpr std::size_t kRefinementRepeats = 111;

/// Levels the rough scan may enter before it gives up at q = 2^-levels.
std::size_t scan_levels(std::size_t n) {
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n) + 1.0))) +
         2;
}

void dedupe(std::vector<NodeId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

bool cancel_tripped(const CountOptions& opts) {
  return opts.engine.cancel != nullptr && opts.engine.cancel->cancelled();
}

}  // namespace

CountOutcome run_newport_zheng_count(group::QueryChannel& channel,
                                     std::span<const NodeId> participants,
                                     RngStream& rng,
                                     const CountOptions& opts) {
  CountOutcome out;
  const QueryCount start = channel.queries_used();
  const double n = static_cast<double>(participants.size());
  if (participants.empty()) {
    out.exact = !channel.lossy();
    out.confidence = out.exact ? 1.0 : 0.0;
    return out;
  }

  // Anchor: one whole-set query. On a lossless channel silence here proves
  // x = 0 exactly; under loss it is only evidence, so exactness is gated.
  const auto anchor = channel.query_set(participants);
  if (anchor.kind == group::BinQueryResult::Kind::kCaptured)
    out.confirmed.push_back(anchor.captured);
  if (!anchor.nonempty()) {
    out.exact = !channel.lossy();
    out.confidence = out.exact ? 1.0 : 0.0;
    out.estimate = 0.0;
    out.queries = channel.queries_used() - start;
    return out;
  }

  // Phase 1 — rough doubling scan: probe at inclusion q = 2^-i until most
  // probes fall silent. P(silence) = (1−q)^x crosses 1/2 around qx ≈ ln2,
  // so the stopping level gives x ≲ 2^(level+1) up to a constant factor.
  group::BinAssignment bin;
  double q = 1.0;
  std::size_t level = 0;
  const std::size_t max_levels = scan_levels(participants.size());
  for (; level < max_levels; ++level) {
    q /= 2.0;
    std::size_t silent = 0;
    for (std::size_t r = 0; r < kScanProbes; ++r) {
      if (cancel_tripped(opts)) {
        out.cancelled = true;
        out.queries = channel.queries_used() - start;
        return out;
      }
      if (!probe(channel, participants, q, rng, bin, out.confirmed)
               .nonempty())
        ++silent;
    }
    ++out.rounds;
    if (2 * silent >= kScanProbes) break;
  }
  const double rough = std::min(n, std::exp2(static_cast<double>(level) + 1));

  // Phase 2 — refinement at the maximum-information operating point:
  // q* solves (1−q*)^rough = 1/2, where d/dx of the silence rate is
  // steepest relative to its binomial noise.
  const double qstar =
      std::clamp(1.0 - std::exp2(-1.0 / rough), 1e-9, 1.0 - 1e-9);
  std::size_t silent = 0;
  for (std::size_t r = 0; r < kRefinementRepeats; ++r) {
    if (cancel_tripped(opts)) {
      out.cancelled = true;
      out.queries = channel.queries_used() - start;
      return out;
    }
    if (!probe(channel, participants, qstar, rng, bin, out.confirmed)
             .nonempty())
      ++silent;
  }
  ++out.rounds;

  const double shat =
      static_cast<double>(silent) / static_cast<double>(kRefinementRepeats);
  double estimate;
  if (silent == 0) {
    estimate = 2.0 * rough;  // beyond resolution upward; clamp settles it
  } else if (silent == kRefinementRepeats) {
    estimate = 1.0;  // the anchor saw activity, so x ≥ 1
  } else {
    estimate = std::log(shat) / std::log(1.0 - qstar);
  }
  out.estimate = std::clamp(estimate, 1.0, n);
  out.epsilon = kCountEpsilon;
  out.confidence = 1.0 - kCountDelta;
  out.queries = channel.queries_used() - start;
  return out;
}

CountOutcome run_beep_exact_count(group::QueryChannel& channel,
                                  std::span<const NodeId> participants,
                                  RngStream& rng, const CountOptions&) {
  CountOutcome out;
  const auto count = run_exact_count(channel, participants, rng);
  out.estimate = static_cast<double>(count.count);
  out.queries = count.queries;
  out.confirmed = count.identified_ids;
  // Splitting trusts silence to discard subtrees, so under loss the count
  // is only a lower bound and exactness must not be claimed.
  out.exact = !channel.lossy();
  out.confidence = out.exact ? 1.0 : 0.0;
  return out;
}

const std::vector<CountAlgorithmSpec>& counting_registry() {
  static const std::vector<CountAlgorithmSpec> registry = [] {
    std::vector<CountAlgorithmSpec> specs;
    specs.push_back(
        {"nz-geom",
         "Newport–Zheng geometric-phase (1±ε) approximate count (1+ model)",
         false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            RngStream& rng, const CountOptions& opts) {
           return run_newport_zheng_count(ch, nodes, rng, opts);
         }});
    specs.push_back(
        {"beep-exact",
         "Casteigts-style exact beeping count (adaptive splitting)", true,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            RngStream& rng, const CountOptions& opts) {
           return run_beep_exact_count(ch, nodes, rng, opts);
         }});
    return specs;
  }();
  return registry;
}

const CountAlgorithmSpec* find_counting_algorithm(std::string_view name) {
  for (const auto& spec : counting_registry())
    if (spec.name == name) return &spec;
  return nullptr;
}

ThresholdOutcome run_threshold_via_count(group::QueryChannel& channel,
                                         std::span<const NodeId> participants,
                                         std::size_t t, RngStream& rng,
                                         std::string_view estimator,
                                         const EngineOptions& opts) {
  const auto* cspec = find_counting_algorithm(estimator);
  TCAST_CHECK_MSG(cspec != nullptr, "unknown counting algorithm name");

  ThresholdOutcome out;
  out.remaining_candidates = participants.size();
  // Degenerate thresholds resolve for free, like every engine algorithm.
  if (t == 0) {
    out.decision = true;
    return out;
  }
  if (participants.size() < t) {
    out.decision = false;
    return out;
  }

  const QueryCount start = channel.queries_used();
  CountOptions copts;
  copts.engine = opts;
  auto count = cspec->run(channel, participants, rng, copts);
  dedupe(count.confirmed);

  // A cancelled estimation (or a token that tripped during an estimator
  // that does not poll it) must not flow into a verdict.
  if (count.cancelled ||
      (opts.cancel != nullptr && opts.cancel->cancelled())) {
    out.cancelled = true;
    out.queries = channel.queries_used() - start;
    out.rounds = count.rounds;
    return out;
  }

  if (count.exact && !channel.lossy()) {
    // A proven count answers the threshold directly.
    out.decision =
        count.estimate >= static_cast<double>(t) - 0.5;  // integer compare
    out.queries = channel.queries_used() - start;
    out.rounds = count.rounds;
    out.confirmed_positives = count.confirmed.size();
    out.remaining_candidates = 0;
    return out;
  }

  // Approximate path: the estimate picks the shape of an exact verification
  // session, but never the verdict. Captured identities from estimation are
  // credited against t and excluded from the session (they are kConfirmed on
  // the channel; re-announcing them would be a conformance violation) — the
  // prob-abns hint pattern, generalised.
  std::vector<NodeId> rest;
  rest.reserve(participants.size());
  for (const NodeId id : participants)
    if (!std::binary_search(count.confirmed.begin(), count.confirmed.end(),
                            id))
      rest.push_back(id);
  const std::size_t credit = count.confirmed.size();

  if (credit >= t) {
    out.decision = true;
    out.rounds = count.rounds;
    out.confirmed_positives = credit;
    out.remaining_candidates = rest.size();
    out.queries = channel.queries_used() - start;
    return out;
  }

  const std::size_t remaining_t = t - credit;
  ThresholdOutcome session;
  // Widen the claimed band before trusting it for *shape* selection: the
  // (1±ε) claim is only w.h.p., and a session seeded from a bad estimate
  // must still be correct, just slower. ABNS seeded with x̂ when the
  // estimate is far below the bar (bulk elimination from a good seed);
  // 2tBins when t could plausibly be within reach (near-oracle for x ≥ t).
  const double widen = 2.0 * (1.0 + count.epsilon);
  if (count.estimate * widen < static_cast<double>(remaining_t)) {
    session = run_abns(channel, rest, remaining_t, rng,
                       AbnsOptions{std::max(1.0, count.estimate)}, opts);
  } else {
    session = run_two_t_bins(channel, rest, remaining_t, rng, opts);
  }
  out = session;
  out.confirmed_positives = session.confirmed_positives + credit;
  out.queries = channel.queries_used() - start;
  return out;
}

double sampling_estimator_query_bound(std::size_t n) {
  return static_cast<double>(1 + kScanProbes * scan_levels(n) +
                             kRefinementRepeats);
}

double beep_exact_query_bound(std::size_t n) {
  // Splitting explores a binary tree over n leaves: ≤ 2n − 1 interval
  // nodes, and each capture re-query removes a node permanently, adding at
  // most n more. 2n·(log2(n)+2) is far above both terms combined; validated
  // against adversarial cases in tests/core/counting_test.
  const double nn = static_cast<double>(std::max<std::size_t>(n, 1));
  return 2.0 * nn * (std::log2(nn) + 2.0) + 8.0;
}

}  // namespace tcast::core
