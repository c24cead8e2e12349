// CheckedChannel: an online invariant-asserting decorator.
//
// Forwards every announce and query to the inner channel, mirrors every
// sound inference a threshold algorithm is allowed to make, and records a
// Violation the moment the algorithm — or the channel — steps outside them
// (wrap the inner channel in an InstrumentedChannel to keep a transcript):
//
//   * partition   — an announced BinAssignment must not place a node in two
//                   bins, and must only contain known participants;
//   * requery     — a node disposed by an empty bin (exact semantics) or
//                   confirmed by capture must never be queried again;
//   * truth       — query results must be consistent with oracle ground
//                   truth: non-empty ⇒ ≥1 real positive (false positives
//                   are structurally impossible on every tier), empty ⇒ 0
//                   real positives unless the channel is declared lossy,
//                   captured ⇒ the identity is a real positive in the
//                   queried set, and 2+ activity ⇒ ≥2 real positives when
//                   a lone reply always decodes;
//   * bound       — the cumulative query count must stay under the
//                   registered worst-case bound;
//   * outcome     — the final ThresholdOutcome (checked via check_outcome)
//                   must be correct: exactly for exact channels, one-sided
//                   (`true` ⇒ x ≥ t) under injected false negatives.
//
// Violations are collected, not fatal, so the conformance self-test can
// demonstrate that intentionally-broken algorithms are caught; set
// Config::fail_fast to abort on the first one instead.
#pragma once

#include <string>
#include <vector>

#include "core/counting.hpp"
#include "core/round_engine.hpp"
#include "group/query_channel.hpp"

namespace tcast::conformance {

struct Violation {
  enum class Category { kPartition, kRequery, kTruth, kBound, kOutcome };
  Category category;
  std::string message;
};

const char* to_string(Violation::Category c);

class CheckedChannel final : public group::QueryChannel {
 public:
  struct Config {
    /// Inner channel never produces false negatives (the exact tier). When
    /// false (lossy channels), empty results prove nothing and disposal
    /// tracking is disabled.
    bool exact_semantics = true;
    /// Mirrors EngineOptions::two_plus_activity_counts_two: activity on a
    /// 2+ channel certifies ≥2 positives (sound when a lone reply decodes).
    bool two_plus_activity_counts_two = true;
    /// Flag queries that touch disposed/confirmed nodes.
    bool forbid_requery = true;
    /// Hard per-run query ceiling; 0 disables the check.
    double query_bound = 0.0;
    /// Abort (TCAST_CHECK) on the first violation instead of collecting.
    bool fail_fast = false;
  };

  /// `inner` must be oracle-capable (ground truth is what the checks are
  /// against); `participants` is the queryable universe.
  CheckedChannel(group::QueryChannel& inner,
                 std::span<const NodeId> participants, Config cfg);
  CheckedChannel(group::QueryChannel& inner,
                 std::span<const NodeId> participants)
      : CheckedChannel(inner, participants, Config{}) {}

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }

  /// Invariants on the final outcome: decision correctness vs ground truth
  /// (one-sided when !exact_semantics), query accounting, confirmed count.
  void check_outcome(std::size_t threshold,
                     const core::ThresholdOutcome& out);

  /// Invariants on a counting estimator's outcome: exactness claims are
  /// refused outright on lossy channels (the PR 2 gate, mirrored — silence
  /// proves nothing there); a claimed-exact count must equal ground truth;
  /// on exact channels x = 0 forces estimate 0 (activity cannot be
  /// manufactured); estimates stay in [0, n]; query accounting; confirmed
  /// identities must be real positives (and absent under the 1+ model).
  /// Approximate accuracy is deliberately NOT judged per-run — that is the
  /// statistical monitor's job (conformance/count_monitor).
  void check_count_outcome(const core::CountOutcome& out);

  std::size_t true_positive_count() const { return truth_positive_count_; }

  bool lossy() const override { return inner_->lossy(); }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return inner_->oracle_positive_count(nodes);
  }

 protected:
  void do_announce(const group::BinAssignment& a) override;
  group::BinQueryResult do_query_bin(const group::BinAssignment& a,
                                     std::size_t idx) override;
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  enum class NodeState : unsigned char {
    kUnknown,   ///< not a participant
    kCandidate, ///< may still be queried
    kDisposed,  ///< proven negative by an empty bin (exact semantics only)
    kConfirmed, ///< proven positive by capture
  };

  void add_violation(Violation::Category c, std::string message);
  group::BinQueryResult check_result(std::span<const NodeId> nodes,
                                     group::BinQueryResult r,
                                     bool announced_bin);
  NodeState& state_of(NodeId id) { return state_.at(static_cast<std::size_t>(id)); }

  group::QueryChannel* inner_;
  Config cfg_;
  std::vector<NodeId> participants_;
  std::vector<NodeState> state_;   ///< indexed by NodeId
  std::vector<char> truth_;        ///< oracle positivity, indexed by NodeId
  std::size_t truth_positive_count_ = 0;
  std::vector<Violation> violations_;
  bool bound_reported_ = false;
};

}  // namespace tcast::conformance
