#include "core/count_estimation.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "group/binning.hpp"

namespace tcast::core {

namespace {

/// Queries per level while scanning.
constexpr std::size_t kProbeRepeats = 6;
/// Accept a level once its observed non-empty fraction drops to this or
/// below — the informative regime of the inversion (rates near 1 invert
/// with exploding variance; 0.65 tuned empirically to ≈ ±23% mean relative
/// error at 30 refining repeats).
constexpr double kTargetRate = 0.65;

/// Fraction of `repeats` sampled bins (inclusion q) that answer non-empty;
/// 2+ captures along the way are appended to `confirmed`.
std::size_t count_nonempty(group::QueryChannel& channel,
                           std::span<const NodeId> participants, double q,
                           std::size_t repeats, RngStream& rng,
                           std::vector<NodeId>& confirmed) {
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto bin = group::BinAssignment::sampled(participants, q, rng);
    const auto result = channel.query_set(bin.bin(0));
    if (result.kind == group::BinQueryResult::Kind::kCaptured)
      confirmed.push_back(result.captured);
    if (result.nonempty()) ++nonempty;
  }
  return nonempty;
}

/// Inverts P(non-empty) = 1 − (1 − q)^x for x given the observed rate.
double invert_rate(double rate, double q) {
  rate = std::clamp(rate, 1e-9, 1.0 - 1e-9);
  return std::log(1.0 - rate) / std::log(1.0 - q);
}

}  // namespace

CountEstimate estimate_positive_count(group::QueryChannel& channel,
                                      std::span<const NodeId> participants,
                                      RngStream& rng,
                                      std::size_t refine_repeats) {
  TCAST_CHECK(refine_repeats >= 1);
  CountEstimate out;
  const QueryCount start = channel.queries_used();

  // Level 0: the whole set — settles x = 0 exactly and anchors the scan.
  // (On a lossy channel silence proves nothing; the caller owns that gate —
  // the counting portfolio wrapper clears `exact` when channel.lossy().)
  const auto anchor = channel.query_set(participants);
  if (anchor.kind == group::BinQueryResult::Kind::kCaptured)
    out.confirmed.push_back(anchor.captured);
  if (!anchor.nonempty()) {
    out.exact = true;
    out.estimate = 0.0;
    out.queries = channel.queries_used() - start;
    return out;
  }

  // Scan geometric levels q = 1/2, 1/4, ... until the non-empty rate drops
  // into the informative band; below every level the rate only shrinks.
  double q = 1.0;
  double rate = 1.0;
  const auto max_levels = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(participants.size()) + 1)) + 3);
  for (std::size_t level = 0; level < max_levels; ++level) {
    q /= 2.0;
    const std::size_t hits = count_nonempty(
        channel, participants, q, kProbeRepeats, rng, out.confirmed);
    rate = static_cast<double>(hits) / static_cast<double>(kProbeRepeats);
    if (rate <= kTargetRate) break;
  }

  // Refine at the accepted level.
  const std::size_t hits = count_nonempty(
      channel, participants, q, refine_repeats, rng, out.confirmed);
  out.repeats = refine_repeats;
  out.nonempty = hits;
  out.inclusion_used = q;
  const double refined_rate =
      static_cast<double>(hits) / static_cast<double>(refine_repeats);
  // All-empty refinement can only happen by sampling luck (we saw activity
  // at level 0); fall back to the smallest mass distinguishable here.
  out.estimate = hits == 0 ? 1.0 : invert_rate(refined_rate, q);
  out.estimate = std::clamp(out.estimate, 1.0,
                            static_cast<double>(participants.size()));
  out.queries = channel.queries_used() - start;
  return out;
}

const char* to_string(IntervalVerdict v) {
  switch (v) {
    case IntervalVerdict::kBelow: return "below";
    case IntervalVerdict::kInside: return "inside";
    case IntervalVerdict::kAbove: return "above";
  }
  return "?";
}

IntervalOutcome run_interval_query(group::QueryChannel& channel,
                                   std::span<const NodeId> participants,
                                   std::size_t t_lo, std::size_t t_hi,
                                   RngStream& rng,
                                   std::string_view algorithm,
                                   const EngineOptions& opts) {
  TCAST_CHECK(t_lo < t_hi);
  const auto* spec = find_algorithm(algorithm);
  TCAST_CHECK_MSG(spec != nullptr, "unknown tcast algorithm name");
  IntervalOutcome out;
  const QueryCount start = channel.queries_used();

  // Ask the lower bar first: most traffic is expected below it (the
  // bimodal false-alarm mode), so the cheap answer comes first.
  const auto low = spec->run(channel, participants, t_lo, rng, opts);
  if (!low.decision) {
    out.verdict = IntervalVerdict::kBelow;
  } else {
    const auto high = spec->run(channel, participants, t_hi, rng, opts);
    out.verdict = high.decision ? IntervalVerdict::kAbove
                                : IntervalVerdict::kInside;
  }
  out.queries = channel.queries_used() - start;
  return out;
}

}  // namespace tcast::core
