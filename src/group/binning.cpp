#include "group/binning.hpp"

#include <algorithm>
#include <atomic>

#include "rcd/addressing.hpp"

namespace tcast::group {

void BinAssignment::bump_version() {
  // Process-global so a version can never repeat, even across distinct
  // assignments recycled at one address (the ABA hazard a per-object
  // counter would reintroduce).
  static std::atomic<std::uint64_t> g_next_version{0};
  version_ = g_next_version.fetch_add(1, std::memory_order_relaxed) + 1;
}

BinAssignment BinAssignment::random_equal(std::span<const NodeId> nodes,
                                          std::size_t bins, RngStream& rng) {
  BinAssignment out;
  out.assign_random_equal(nodes, bins, rng);
  return out;
}

BinAssignment BinAssignment::contiguous(std::span<const NodeId> nodes,
                                        std::size_t bins) {
  BinAssignment out;
  out.assign_contiguous(nodes, bins);
  return out;
}

BinAssignment BinAssignment::sampled(std::span<const NodeId> nodes,
                                     double inclusion_prob, RngStream& rng) {
  BinAssignment out;
  out.assign_sampled(nodes, inclusion_prob, rng);
  return out;
}

void BinAssignment::assign_random_equal(std::span<const NodeId> nodes,
                                        std::size_t bins, RngStream& rng) {
  scratch_.assign(nodes.begin(), nodes.end());
  assign_random_equal_inplace(scratch_, bins, rng);
}

void BinAssignment::assign_random_equal_inplace(std::span<NodeId> nodes,
                                                std::size_t bins,
                                                RngStream& rng) {
  TCAST_CHECK(bins >= 1);
  shuffle_deal_and_build_words(nodes, bins, rng);
  bump_version();
}

void BinAssignment::shuffle_deal_and_build_words(std::span<NodeId> nodes,
                                                 std::size_t bins,
                                                 RngStream& rng) {
  const std::size_t n = nodes.size();
  // Round-robin deal sizes are arithmetic (bin b gets base + 1 extras for
  // b < n mod bins), so offsets need no deal pass.
  offsets_.resize(bins + 1);
  const std::size_t base = n / bins;
  const std::size_t extra = n % bins;
  std::size_t next = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    offsets_[b] = next;
    next += base + (b < extra ? 1 : 0);
  }
  offsets_[bins] = n;

  arena_.resize(n);
  words_per_bin_ = 0;
  if (bins <= kMaxBinsForWords && n != 0) {
    // The max is permutation-invariant, so size the images before shuffling.
    NodeId max_id = 0;
    for (const NodeId id : nodes) max_id = std::max(max_id, id);
    words_per_bin_ = NodeSet::words_for(static_cast<std::size_t>(max_id) + 1);
    words_.assign(bins * words_per_bin_, NodeSet::Word{0});
  }
  if (n == 0) return;
  // Fused Fisher-Yates + deal. RngStream::shuffle's step that draws
  // uniform_below(i) settles position i-1 for good, so the deal (position p
  // goes to bin p mod bins at in-bin rank p / bins, both kept as counters)
  // consumes each element the moment it settles, walking p = n-1 down to 0.
  // The draw sequence is exactly shuffle()'s — same bounds, same order —
  // and the deal's stores execute in the shadow of the generator's serial
  // state chain instead of costing a second pass over the permutation.
  const std::size_t wpb = words_per_bin_;
  NodeSet::Word* const words = words_.data();
  std::size_t b = (n - 1) % bins;
  std::size_t rank = (n - 1) / bins;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_below(i));
    std::swap(nodes[i - 1], nodes[j]);
    const NodeId id = nodes[i - 1];
    arena_[offsets_[b] + rank] = id;
    if (wpb != 0) {
      words[b * wpb + static_cast<std::size_t>(id) / NodeSet::kWordBits] |=
          NodeSet::Word{1}
          << (static_cast<std::size_t>(id) % NodeSet::kWordBits);
    }
    if (b == 0) {
      b = bins - 1;
      --rank;
    } else {
      --b;
    }
  }
  // Position 0 settles when the loop ends (b == 0, rank == 0 here).
  const NodeId id = nodes[0];
  arena_[offsets_[0]] = id;
  if (wpb != 0) {
    words[static_cast<std::size_t>(id) / NodeSet::kWordBits] |=
        NodeSet::Word{1} << (static_cast<std::size_t>(id) % NodeSet::kWordBits);
  }
}

void BinAssignment::assign_contiguous(std::span<const NodeId> nodes,
                                      std::size_t bins) {
  TCAST_CHECK(bins >= 1);
  arena_.assign(nodes.begin(), nodes.end());
  offsets_.resize(bins + 1);
  // Same size profile as the random variant (sizes differ by ≤ 1), but the
  // membership is the deterministic index order.
  const std::size_t n = nodes.size();
  const std::size_t base = n / bins;
  const std::size_t extra = n % bins;
  std::size_t next = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    offsets_[b] = next;
    next += base + (b < extra ? 1 : 0);
  }
  offsets_[bins] = n;
  build_words();
  bump_version();
}

void BinAssignment::assign_sampled(std::span<const NodeId> nodes,
                                   double inclusion_prob, RngStream& rng) {
  TCAST_CHECK(inclusion_prob >= 0.0 && inclusion_prob <= 1.0);
  const std::uint64_t threshold =
      RngStream::bernoulli_threshold(inclusion_prob);
  // Branch-free append: every node is written at the next free slot and
  // kept by advancing past it, so the arena must hold all of `nodes`. It
  // only grows, and keeps its size across calls; bin(0) ends at
  // offsets_[1].
  if (arena_.size() < nodes.size()) arena_.resize(nodes.size());
  NodeId* const out = arena_.data();
  std::size_t kept = 0;
  for (const NodeId id : nodes) {
    out[kept] = id;
    kept += rng.bernoulli_below(threshold) ? 1u : 0u;
  }
  offsets_.resize(2);
  offsets_[0] = 0;
  offsets_[1] = kept;
  // No word image: every sampled bin is queried through query_set.
  words_per_bin_ = 0;
  bump_version();
}

void BinAssignment::build_words() {
  words_per_bin_ = 0;
  const std::size_t bins = bin_count();
  if (bins == 0 || bins > kMaxBinsForWords || arena_.empty()) return;
  NodeId max_id = 0;
  for (const NodeId id : arena_) max_id = std::max(max_id, id);
  words_per_bin_ = NodeSet::words_for(static_cast<std::size_t>(max_id) + 1);
  words_.assign(bins * words_per_bin_, NodeSet::Word{0});
  for (std::size_t b = 0; b < bins; ++b) {
    NodeSet::Word* const image = words_.data() + b * words_per_bin_;
    for (const NodeId id : bin(b)) {
      image[static_cast<std::size_t>(id) / NodeSet::kWordBits] |=
          NodeSet::Word{1} << (static_cast<std::size_t>(id) %
                               NodeSet::kWordBits);
    }
  }
}

std::vector<std::uint16_t> BinAssignment::to_wire(std::size_t universe) const {
  std::vector<std::uint16_t> wire;
  to_wire_into(universe, wire);
  return wire;
}

void BinAssignment::to_wire_into(std::size_t universe,
                                 std::vector<std::uint16_t>& out) const {
  out.assign(universe, rcd::kNotInRound);
  for (std::size_t b = 0; b < bin_count(); ++b) {
    for (const NodeId id : bin(b)) {
      TCAST_CHECK(static_cast<std::size_t>(id) < universe);
      out[id] = static_cast<std::uint16_t>(b);
    }
  }
}

}  // namespace tcast::group
