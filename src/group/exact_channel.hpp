// ExactChannel: the abstract simulation tier (paper Sec. IV-C setup).
//
// Queries are resolved instantly from ground truth with exact 1+/2+
// semantics; the only randomness is the capture draw of the 2+ model. This
// is the channel behind Figs. 1-3 and 5-11.
//
// Per announced assignment the channel counts every bin's positives once —
// AND + popcount of the assignment's word image against the positive
// NodeSet (common/node_set.hpp) when it has one, else one walk of its
// members — and answers each query_bin from that array. A query on an
// assignment that was never announced walks the bin's members. The
// conformance suite's differential tests prove it bit-identical (outcomes,
// query counts, and RNG draws) to a scalar per-member walk,
// tests/conformance/reference_exact_channel.hpp.
#pragma once

#include <memory>
#include <vector>

#include "common/node_set.hpp"
#include "group/query_channel.hpp"
#include "radio/capture.hpp"

namespace tcast::group {

class ExactChannel final : public QueryChannel {
 public:
  struct Config {
    CollisionModel model = CollisionModel::kOnePlus;
    /// 2+ capture draw; nullptr = GeometricCaptureModel defaults.
    std::shared_ptr<radio::CaptureModel> capture;
  };

  /// `positive[i]` = ground truth for node i; `rng` is borrowed for capture
  /// draws and must outlive the channel.
  ExactChannel(std::vector<bool> positive, RngStream& rng)
      : ExactChannel(std::move(positive), rng, Config{}) {}
  ExactChannel(std::vector<bool> positive, RngStream& rng, Config cfg);

  /// Convenience: n nodes with a random x-subset positive.
  static ExactChannel with_random_positives(std::size_t n, std::size_t x,
                                            RngStream& rng, Config cfg);
  static ExactChannel with_random_positives(std::size_t n, std::size_t x,
                                            RngStream& rng);

  std::size_t participant_count() const { return positive_.universe(); }
  std::size_t positive_count() const { return positive_.count(); }
  bool is_positive(NodeId id) const {
    TCAST_DCHECK(static_cast<std::size_t>(id) < positive_.universe());
    return positive_.test(id);
  }
  void set_positive(NodeId id, bool value);

  /// Replaces the ground truth with a fresh uniformly random x-subset of
  /// positives, consuming exactly the draw sequence of
  /// `rng.sample_subset(n, x)` — a trial that recycles this channel sees the
  /// same positives (and downstream draws) as one that constructed a fresh
  /// channel via with_random_positives().
  void assign_random_positives(std::size_t x, RngStream& rng);

  /// Points capture draws at a different stream (per-trial streams when the
  /// channel is recycled across trials).
  void rebind_rng(RngStream& rng) { rng_ = &rng; }

  /// All participant ids [0, n) — the initial candidate set. The span
  /// aliases a member cached at construction; no per-call allocation.
  std::span<const NodeId> all_nodes() const { return nodes_; }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override;

  /// Per-announcement SoA cache: every bin's positive count, built on
  /// first use after announce() — through the SIMD bin-count kernel when
  /// `a` has a word image, else by one walk of its arena — and then served
  /// as array lookups: the oracle ordering pass and the query loop each
  /// touch every bin, so one pass replaces 2·bins per-bin counts. Returns
  /// nullptr unless `a` is the currently announced assignment at its
  /// announced version — an assignment mutated or recycled since its
  /// announce() can never serve stale counts. Invalidated by any
  /// ground-truth mutation. Consumes no RNG, so query_bin draws exactly
  /// what a member walk would.
  const std::uint32_t* oracle_bin_counts(const BinAssignment& a) const override;

 protected:
  void do_announce(const BinAssignment& a) override;
  BinQueryResult do_query_bin(const BinAssignment& a,
                              std::size_t idx) override;
  BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  /// with_random_positives() body; a constructor so the factories can
  /// return prvalues (QueryChannel is neither copyable nor movable). Kept
  /// private — and four-argument — so braced bool lists like
  /// `ExactChannel({true}, rng, cfg)` keep selecting the vector<bool> ctor.
  ExactChannel(std::size_t n, std::size_t x, RngStream& rng, Config cfg);

  BinQueryResult resolve(std::size_t positives, std::span<const NodeId> bin);

  NodeSet positive_;
  std::vector<NodeId> nodes_;         ///< cached [0, n)
  std::vector<NodeId> pool_scratch_;  ///< assign_random_positives() reuse
  RngStream* rng_;
  std::shared_ptr<radio::CaptureModel> capture_;
  /// oracle_bin_counts() state (see above). `counts_` is mutable because
  /// the materialization point is the const oracle-count hook; the channel
  /// is single-threaded by contract (the query counter already is).
  std::uint64_t announced_version_ = 0;  ///< 0 = nothing announced yet
  mutable std::vector<std::uint32_t> counts_;
  mutable bool counts_valid_ = false;
};

}  // namespace tcast::group
