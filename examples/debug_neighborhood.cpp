// Neighbourhood debugging with the 2+ collision model (paper Sec. II-C:
// "querying of the neighborhood for debugging purposes").
//
// With capture-capable radios every decoded reply carries an identity, so a
// developer can go beyond the threshold bit and *enumerate* which
// neighbours hold a predicate ("whose firmware is stale?") by re-running
// group queries and excluding captured nodes — classic group testing, built
// from the same engine the threshold query uses.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "group/binning.hpp"
#include "group/exact_channel.hpp"

int main() {
  using namespace tcast;

  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kStale = 6;  // nodes running the old firmware

  RngStream rng(11);
  group::ExactChannel::Config cfg;
  cfg.model = group::CollisionModel::kTwoPlus;
  auto channel =
      group::ExactChannel::with_random_positives(kNodes, kStale, rng, cfg);

  std::printf("debugging: which of %zu neighbours run stale firmware?\n\n",
              kNodes);

  // Adaptive enumeration: query bins; empty bins clear their nodes, captured
  // replies pin an identity; activity bins get split next round.
  const auto everyone = channel.all_nodes();
  std::vector<NodeId> suspects(everyone.begin(), everyone.end());
  std::vector<NodeId> stale;
  std::size_t round = 0;
  while (!suspects.empty()) {
    ++round;
    const std::size_t bins =
        std::max<std::size_t>(2, std::min(suspects.size(), 2 * kStale));
    const auto assignment =
        group::BinAssignment::random_equal(suspects, bins, rng);
    // Announce the round's bins before querying them, as every engine round
    // does (on a packet channel an unannounced bin has no listeners).
    channel.announce(assignment);
    std::vector<NodeId> next;
    for (std::size_t b = 0; b < assignment.bin_count(); ++b) {
      const auto bin = assignment.bin(b);
      if (bin.empty()) continue;
      const auto result = channel.query_bin(assignment, b);
      switch (result.kind) {
        case group::BinQueryResult::Kind::kEmpty:
          break;  // everyone in this bin is clean
        case group::BinQueryResult::Kind::kCaptured:
          stale.push_back(result.captured);
          channel.set_positive(result.captured, false);  // patched / noted
          for (const NodeId id : bin)
            if (id != result.captured) next.push_back(id);
          break;
        case group::BinQueryResult::Kind::kActivity:
          next.insert(next.end(), bin.begin(), bin.end());
          break;
      }
    }
    suspects = std::move(next);
    if (round > 64) break;  // paranoia guard
  }

  std::sort(stale.begin(), stale.end());
  std::printf("found %zu stale nodes in %llu queries (%zu rounds): ",
              stale.size(),
              static_cast<unsigned long long>(channel.queries_used()), round);
  for (const NodeId id : stale) std::printf("%u ", id);
  std::printf("\n(roll-call would cost %zu slots)\n", kNodes);
  return stale.size() == kStale ? 0 : 1;
}
