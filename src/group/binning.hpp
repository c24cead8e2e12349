// Bin (group) assignment — the group-testing structure tcast queries act on.
//
// Storage is one flat NodeId arena plus a bins+1 offset table (no per-bin
// vectors), and — when the bin count is small enough for the word path to
// win — a per-bin 64-bit word image of the membership, so the exact tier
// can count every bin's positives with AND + popcount against its positive
// set (see common/node_set.hpp). The `assign_*` methods reuse every
// buffer, so a round engine re-binning each round allocates nothing at
// steady state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace tcast::group {

/// A partition of (a subset of) the participants into queryable bins.
class BinAssignment {
 public:
  /// Beyond this many bins the per-bin word images are not built: with b
  /// bins over n nodes, counting every bin from the images costs b·n/64
  /// word operations while one walk of the arena costs n member tests —
  /// words only win while b ≲ 64, and the image arena would grow as
  /// b·n/64 words.
  static constexpr std::size_t kMaxBinsForWords = 64;

  BinAssignment() = default;

  /// Random equal-sized partition (Alg. 1 line 4): Fisher-Yates permutation
  /// then round-robin deal; bin sizes differ by at most one. Draw sequence
  /// and resulting bins are bit-identical to the historical
  /// shuffle-then-push_back construction.
  static BinAssignment random_equal(std::span<const NodeId> nodes,
                                    std::size_t bins, RngStream& rng);

  /// Deterministic contiguous partition (the variant of [4] the paper
  /// contrasts with; ablation `abl_binning`).
  static BinAssignment contiguous(std::span<const NodeId> nodes,
                                  std::size_t bins);

  /// One bin containing each node independently with `inclusion_prob` —
  /// the probabilistic sampling bin of Sec. V-D / VI. One draw per node,
  /// the draw `rng.bernoulli(inclusion_prob)` makes, in node order. Builds
  /// no word image: callers query the bin with query_set.
  static BinAssignment sampled(std::span<const NodeId> nodes,
                               double inclusion_prob, RngStream& rng);

  /// Allocation-reusing variants of the factories above: repopulate this
  /// assignment in place, keeping arena/offset/word capacity.
  void assign_random_equal(std::span<const NodeId> nodes, std::size_t bins,
                           RngStream& rng);
  /// assign_random_equal for callers that own a mutable candidate buffer
  /// they rebuild anyway (the round engine): permutes `nodes` in place
  /// (Fisher-Yates, the exact shuffle draw sequence) instead of copying it
  /// into the scratch buffer first. Identical bins and draws.
  void assign_random_equal_inplace(std::span<NodeId> nodes, std::size_t bins,
                                   RngStream& rng);
  void assign_contiguous(std::span<const NodeId> nodes, std::size_t bins);
  void assign_sampled(std::span<const NodeId> nodes, double inclusion_prob,
                      RngStream& rng);

  std::size_t bin_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::span<const NodeId> bin(std::size_t i) const {
    TCAST_DCHECK(i < bin_count());
    return {arena_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  std::size_t total_assigned() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// Word image of bin membership, present when bin_count() ≤
  /// kMaxBinsForWords (and the assignment is non-trivial and not sampled).
  /// `bin_words(i)` spans words_per_bin() words covering ids [0,
  /// 64·words_per_bin()); ids beyond every member's id are simply absent.
  /// ExactChannel counts bins from it and the round engine clears an empty
  /// bin from its alive set with it; everyone else ignores it.
  bool has_bin_words() const { return words_per_bin_ != 0; }
  std::size_t words_per_bin() const { return words_per_bin_; }
  std::span<const NodeSet::Word> bin_words(std::size_t i) const {
    TCAST_DCHECK(has_bin_words() && i < bin_count());
    return {words_.data() + i * words_per_bin_, words_per_bin_};
  }

  /// The whole word image as one contiguous arena (bin i at stride
  /// i·words_per_bin()) — the layout the batched SIMD bin-count kernel
  /// consumes. Only meaningful when has_bin_words().
  std::span<const NodeSet::Word> bin_words_arena() const {
    TCAST_DCHECK(has_bin_words());
    return {words_.data(), bin_count() * words_per_bin_};
  }

  /// Monotone globally-unique content version, bumped by every assign_*
  /// call (including on a freshly default-constructed assignment). Channels
  /// that cache per-announcement derived state (ExactChannel's batched bin
  /// counts) key it on this, so an in-place re-assignment — or a different
  /// assignment recycled at the same address — can never serve stale
  /// counts.
  std::uint64_t version() const { return version_; }

  /// Serialises to the on-air node→bin map carried by a Predicate frame.
  /// `universe` is the participant count (wire vector length); nodes not in
  /// any bin get rcd::kNotInRound (0xFFFF).
  std::vector<std::uint16_t> to_wire(std::size_t universe) const;

  /// Allocation-free variant: serialises into `out` (resized to `universe`,
  /// capacity reused). The packet tier calls this once per poll, so the
  /// scratch buffer must not churn the allocator.
  void to_wire_into(std::size_t universe, std::vector<std::uint16_t>& out) const;

 private:
  void build_words();
  /// Fisher-Yates shuffle of `nodes` (exactly RngStream::shuffle's draw
  /// sequence) fused with the round-robin deal and word-image build: each
  /// element is dealt the moment the shuffle settles it, one walk total.
  /// Produces exactly the arena/offsets/words that shuffle-then-
  /// build_words() would.
  void shuffle_deal_and_build_words(std::span<NodeId> nodes, std::size_t bins,
                                    RngStream& rng);
  void bump_version();

  std::vector<NodeId> arena_;          ///< members, grouped by bin; a
                                       ///< sampled bin may leave spare
                                       ///< slots past offsets_.back()
  std::vector<std::size_t> offsets_;   ///< bins+1 arena offsets
  std::vector<NodeId> scratch_;        ///< reused shuffle buffer
  std::vector<NodeSet::Word> words_;   ///< bins × words_per_bin_ image
  std::size_t words_per_bin_ = 0;      ///< 0 = no word image
  std::uint64_t version_ = 0;          ///< 0 = never assigned
};

}  // namespace tcast::group
