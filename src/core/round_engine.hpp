// The shared round engine behind every exact tcast algorithm.
//
// Algorithms 1 (2tBins), 2 (Exponential Increase), 3 (ABNS) and the oracle
// baseline all share one skeleton — per round: pick a bin count, partition
// the surviving candidates, query bins with early termination, dispose the
// nodes of silent bins — and differ only in how the bin count is chosen.
// That choice is the BinCountPolicy strategy; the engine owns everything
// else, including the 2+ model's extra bookkeeping:
//
//   * a captured identity is a *confirmed* positive: removed from the
//     candidate set and credited against the threshold for the rest of the
//     session ("we can exclude this node from the next round");
//   * an activity-without-capture bin certifies ≥2 positives ("we can
//     conclude that at least two nodes replied") — on channels that do not
//     declare lossy() only, since the inference is sound only when a lone
//     reply always decodes.
//
// Termination invariant per query:
//   confirmed + Σ(per-bin lower bounds this round) ≥ t  ⇒  answer true
//   confirmed + |candidates|                       < t  ⇒  answer false
// which reduces exactly to Alg. 1 lines 11/14 in the 1+ model.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "group/query_channel.hpp"

namespace tcast::core {

/// Within-round query order (DESIGN.md decision #2).
enum class BinOrdering {
  /// Paper-simulation accounting: bins are ordered so non-empty ones come
  /// first and "empty bins never occupy a time slot" once early termination
  /// fires. Requires an oracle-capable channel; falls back to kInOrder.
  kNonEmptyFirst,
  /// Realistic: bins queried in index order (the testbed behaviour).
  kInOrder,
};

enum class BinningScheme {
  kRandomEqual,  ///< Alg. 1 line 4 (this paper)
  kContiguous,   ///< deterministic variant of [4] (ablation)
};

/// How the engine treats silent bins on a channel that declares loss
/// (QueryChannel::lossy()). On a lossless channel silence is proof and no
/// policy ever re-queries — RetryPolicy is bit-exact with the historical
/// engine there, whatever its kind.
struct RetryPolicy {
  enum class Kind : std::uint8_t {
    kNone,      ///< accept silence at face value (the paper's engine)
    kFixed,     ///< re-query a silent bin up to `retries` times
    kAdaptive,  ///< re-query until the estimated residual false-empty
                ///< probability drops under `target_residual`
  };

  Kind kind = Kind::kNone;
  /// kFixed: extra attempts per silent bin before the disposal commits.
  std::size_t retries = 2;
  /// kAdaptive: accept a disposal once p̂^(attempts) ≤ target_residual,
  /// where p̂ is the running loss-rate estimate from contradicted empties.
  double target_residual = 1e-3;
  /// kAdaptive: hard cap on extra attempts per silent bin.
  std::size_t max_retries = 8;

  static RetryPolicy none() { return {}; }
  static RetryPolicy fixed(std::size_t r) {
    return {Kind::kFixed, r, 1e-3, 8};
  }
  static RetryPolicy adaptive(double target, std::size_t cap = 8) {
    return {Kind::kAdaptive, 2, target, cap};
  }

  /// Parses "none" | "fixed:R" | "adaptive:TARGET[:CAP]".
  static std::optional<RetryPolicy> parse(std::string_view text);
  std::string spec() const;

  bool operator==(const RetryPolicy&) const = default;
};

/// Cooperative cancellation, polled by the engine at query granularity.
/// The service tier arms one per query with a wall-clock deadline (and a
/// shard-kill flag); tests use FlagCancelToken to trip it deterministically
/// after an exact number of queries. A cancelled run never fabricates a
/// verdict: ThresholdOutcome::cancelled is set and `decision` is
/// meaningless (callers map it to a typed kDeadlineExceeded/kShardDown).
class CancelToken {
 public:
  virtual ~CancelToken() = default;
  virtual bool cancelled() const = 0;
};

/// Manually-tripped token (thread-safe); the deterministic test vehicle and
/// the shard-kill signal.
class FlagCancelToken final : public CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_release); }
  void reset() { flag_.store(false, std::memory_order_release); }
  bool cancelled() const override {
    return flag_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> flag_{false};
};

struct EngineOptions {
  BinOrdering ordering = BinOrdering::kNonEmptyFirst;
  BinningScheme scheme = BinningScheme::kRandomEqual;
  /// Loss robustness: what to do before committing a silent-bin disposal on
  /// a lossy channel (no effect on lossless channels).
  RetryPolicy retry;
  /// Cooperative cancellation (deadlines, shard kill). Polled before every
  /// query the engine issues; nullptr = never cancelled. Borrowed — must
  /// outlive the run.
  const CancelToken* cancel = nullptr;
};

struct ThresholdOutcome {
  bool decision = false;            ///< the answer to "x ≥ t?"
  QueryCount queries = 0;           ///< RCD queries spent (the paper's cost)
  std::size_t rounds = 0;           ///< rounds entered
  std::size_t confirmed_positives = 0;  ///< identities captured (2+ only)
  std::size_t remaining_candidates = 0; ///< undecided nodes at termination
  /// Re-query attempts spent on silent bins (RetryPolicy; part of
  /// `queries`, broken out so sweeps can report the robustness overhead).
  std::size_t retries = 0;
  /// Silent bins contradicted by a re-query — each is direct evidence of a
  /// lost reply the unguarded engine would have turned into a disposal.
  std::size_t faults_seen = 0;
  /// The run was cancelled (EngineOptions::cancel tripped) before reaching a
  /// verdict; `decision` is meaningless and must not be trusted. Queries,
  /// rounds and confirmed counts reflect work done up to the cancellation.
  bool cancelled = false;
};

/// What a policy sees after each completed (not early-terminated) round.
struct RoundStats {
  std::size_t round_index = 0;       ///< 0-based
  std::size_t bins = 0;              ///< bins in this round's assignment
  std::size_t bins_queried = 0;
  std::size_t empty_bins = 0;        ///< e_real of Alg. 3
  std::size_t nonempty_bins = 0;
  std::size_t captured = 0;          ///< identities captured this round
  std::size_t candidates_before = 0;
  std::size_t candidates_after = 0;
  std::size_t remaining_threshold = 0;  ///< t − confirmed so far
};

/// Strategy: how many bins to use each round.
class BinCountPolicy {
 public:
  virtual ~BinCountPolicy() = default;

  virtual std::size_t initial_bins(std::span<const NodeId> candidates,
                                   std::size_t threshold) = 0;

  virtual std::size_t next_bins(const RoundStats& stats,
                                std::span<const NodeId> candidates) = 0;
};

class RoundEngine {
 public:
  /// `rng` drives the random binning and must outlive run().
  RoundEngine(group::QueryChannel& channel, RngStream& rng,
              EngineOptions opts = {});

  /// Re-targets this engine at a new (channel, rng, options) triple while
  /// keeping the allocated round workspaces — the Monte-Carlo lane reuse
  /// behind the sweep engine's per-trial loop. run() fully re-initialises
  /// every workspace, so a rebound engine is outcome- and draw-identical
  /// to a freshly constructed one.
  void rebind(group::QueryChannel& channel, RngStream& rng,
              const EngineOptions& opts) {
    channel_ = &channel;
    rng_ = &rng;
    opts_ = opts;
  }

  /// Decides whether ≥ `threshold` of `participants` are positive.
  ThresholdOutcome run(std::span<const NodeId> participants,
                       std::size_t threshold, BinCountPolicy& policy);

  /// The channel this engine currently targets (policies that need oracle
  /// access, e.g. the oracle baseline, reach it through here).
  group::QueryChannel& channel() const { return *channel_; }

 private:
  std::size_t clamp_bins(std::size_t b, std::size_t candidates) const;
  void make_assignment(std::span<NodeId> candidates, std::size_t bins,
                       group::BinAssignment& out);
  void query_order(const group::BinAssignment& a,
                   std::vector<std::size_t>& order) const;

  group::QueryChannel* channel_;
  RngStream* rng_;
  EngineOptions opts_;
  /// Per-round workspaces, reused across rounds and runs so the steady-state
  /// round loop allocates nothing.
  group::BinAssignment assignment_;
  NodeSet alive_;
  std::vector<NodeId> candidates_;
  std::vector<std::size_t> order_;
  mutable std::vector<char> nonempty_;
};

}  // namespace tcast::core
