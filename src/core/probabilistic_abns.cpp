#include "core/probabilistic_abns.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/abns.hpp"
#include "core/two_t_bins.hpp"
#include "group/binning.hpp"

namespace tcast::core {

ThresholdOutcome run_probabilistic_abns(group::QueryChannel& channel,
                                        std::span<const NodeId> participants,
                                        std::size_t t, RngStream& rng,
                                        const EngineOptions& opts) {
  // Degenerate thresholds resolve without the hint. The threshold passes
  // through unchanged: the engine already short-circuits t = 0 to `true`
  // (clamping it to 1 would wrongly answer x ≥ 1).
  if (t == 0 || participants.size() < t || t < 2) {
    return run_two_t_bins(channel, participants, t, rng, opts);
  }

  const QueryCount queries_at_start = channel.queries_used();
  const double incl = std::min(1.0, 2.0 / static_cast<double>(t));
  const auto hint_bin =
      group::BinAssignment::sampled(participants, incl, rng);
  const auto hint = channel.query_set(hint_bin.bin(0));

  ThresholdOutcome out;
  if (!hint.nonempty()) {
    // Likely x < t/2: ABNS seeded low.
    AbnsOptions abns{.p0 = std::max(1.0, static_cast<double>(t) / 4.0)};
    out = run_abns(channel, participants, t, rng, abns, opts);
  } else {
    // Likely x > t/2: 2tBins is already near-oracle there. A captured
    // identity from the hint is a confirmed positive the session keeps.
    std::size_t remaining_t = t;
    std::size_t confirmed = 0;
    std::vector<NodeId> rest(participants.begin(), participants.end());
    if (hint.kind == group::BinQueryResult::Kind::kCaptured) {
      std::erase(rest, hint.captured);
      confirmed = 1;
      remaining_t = t - 1;
    }
    out = run_two_t_bins(channel, rest, remaining_t, rng, opts);
    out.confirmed_positives += confirmed;
  }
  out.queries = channel.queries_used() - queries_at_start;
  return out;
}

}  // namespace tcast::core
