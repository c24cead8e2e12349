// NodeSet — a packed bitset over the participant universe: the exact
// tier's ground truth and the round engine's alive set.
//
// Group-testing theory frames a bin query as "is bin ∩ positives empty?",
// which on 64-bit words is AND + popcount: one word operation covers 64
// nodes. NodeSet stores membership as words and exposes what its two users
// need: membership updates and tests, word-level iteration, a prefix fill,
// and bulk ANDNOT removal. ExactChannel hands the words to the batched
// bin-count kernel (common/simd_kernels.hpp); nothing in here draws
// randomness.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/simd_kernels.hpp"
#include "common/types.hpp"

namespace tcast {

class NodeSet {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  static constexpr std::size_t words_for(std::size_t universe) {
    return (universe + kWordBits - 1) / kWordBits;
  }

  NodeSet() = default;
  explicit NodeSet(std::size_t universe) { reset(universe); }

  /// Resizes to `universe` ids and clears all membership.
  void reset(std::size_t universe) {
    universe_ = universe;
    words_.assign(words_for(universe), Word{0});
    count_ = 0;
  }

  /// Clears membership, keeping the universe (and the allocation).
  void clear() {
    std::fill(words_.begin(), words_.end(), Word{0});
    count_ = 0;
  }

  std::size_t universe() const { return universe_; }
  std::size_t word_count() const { return words_.size(); }
  std::span<const Word> words() const { return words_; }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool test(NodeId id) const {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    return (words_[static_cast<std::size_t>(id) / kWordBits] >>
            (static_cast<std::size_t>(id) % kWordBits)) &
           1u;
  }

  /// Inserts `id`; returns true when it was not already a member.
  bool insert(NodeId id) {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    Word& w = words_[static_cast<std::size_t>(id) / kWordBits];
    const Word bit = Word{1} << (static_cast<std::size_t>(id) % kWordBits);
    if (w & bit) return false;
    w |= bit;
    ++count_;
    return true;
  }

  /// Erases `id`; returns true when it was a member.
  bool erase(NodeId id) {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    Word& w = words_[static_cast<std::size_t>(id) / kWordBits];
    const Word bit = Word{1} << (static_cast<std::size_t>(id) % kWordBits);
    if (!(w & bit)) return false;
    w &= ~bit;
    --count_;
    return true;
  }

  /// Images at or below this many words (512 nodes) take the inlined scalar
  /// loop: the out-of-line SIMD dispatch costs more than the loop itself at
  /// small universes, and every variant is bit-identical anyway.
  static constexpr std::size_t kInlineWords = 8;

  /// Visits members in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      Word w = words_[i];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        fn(static_cast<NodeId>(i * kWordBits + bit));
        w &= w - 1;
      }
    }
  }

  /// Appends members in ascending id order (does not clear `out`).
  void append_members(std::vector<NodeId>& out) const {
    for_each([&out](NodeId id) { out.push_back(id); });
  }

  /// Removes every member present in `other` (this &= ~other), returning how
  /// many members were actually removed.
  std::size_t remove_words(std::span<const Word> other) {
    const std::size_t n =
        other.size() < words_.size() ? other.size() : words_.size();
    std::size_t removed;
    if (n <= kInlineWords) {
      removed = 0;
      for (std::size_t i = 0; i < n; ++i) {
        removed += static_cast<std::size_t>(std::popcount(words_[i] & other[i]));
        words_[i] &= ~other[i];
      }
    } else {
      removed = simd::words_andnot_count(words_.data(), other.data(), n);
    }
    count_ -= removed;
    return removed;
  }

  /// Bulk-inserts the id range [0, n) into an empty set — the structure-of-
  /// arrays fast path for "everyone is alive" universes, replacing n
  /// single-bit inserts with a word-image prefix fill. Requires n ≤
  /// universe() and an empty set (the caller owns duplicate detection).
  void fill_prefix(std::size_t n) {
    TCAST_CHECK(count_ == 0);
    TCAST_CHECK(n <= universe_);
    const std::size_t full = n / kWordBits;
    for (std::size_t i = 0; i < full; ++i) words_[i] = ~Word{0};
    if (n % kWordBits != 0) {
      words_[full] = (Word{1} << (n % kWordBits)) - 1;
    }
    count_ = n;
  }

 private:
  std::vector<Word> words_;
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tcast
