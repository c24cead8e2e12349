// QueryChannel — the single interface every tcast algorithm is written
// against. An implementation answers "is this bin empty?" under one of the
// paper's two collision models (Sec. III-A):
//
//   1+ : silence vs activity. Outcomes: kEmpty, kActivity.
//   2+ : additionally, the radio may lock onto one reply (capture effect).
//        Outcomes: kEmpty, kActivity (⇒ ≥2 repliers: a lone reply always
//        decodes), kCaptured (one identity known; because of the capture
//        effect the initiator can NOT conclude the bin held only that node).
//
// Query accounting lives in this base class (non-virtual entry points), so
// every implementation is counted identically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/types.hpp"
#include "group/binning.hpp"

namespace tcast::group {

enum class CollisionModel : std::uint8_t { kOnePlus, kTwoPlus };

const char* to_string(CollisionModel m);

struct BinQueryResult {
  enum class Kind : std::uint8_t {
    kEmpty,     ///< silence: no positive node in the bin
    kActivity,  ///< energy but no decode (1+: ≥1 positive; 2+: ≥2 positives)
    kCaptured,  ///< 2+ only: one reply decoded; `captured` is that node
  };

  Kind kind = Kind::kEmpty;
  NodeId captured = kNoNode;

  bool nonempty() const { return kind != Kind::kEmpty; }

  static BinQueryResult empty() { return {}; }
  static BinQueryResult activity() {
    return {Kind::kActivity, kNoNode};
  }
  static BinQueryResult captured_node(NodeId id) {
    return {Kind::kCaptured, id};
  }
};

/// Frame-level fault hooks a packet-tier channel may expose (see
/// faults/FaultyChannel). Where the abstract tier injects faults at query
/// granularity, a channel implementing this interface takes them below the
/// query layer, onto the sim clock: a failed
/// node powers its radio off mid-exchange (it hears the poll, then dies
/// before its HACK/reply fires) and a suppressed query loses every reply at
/// the initiator's antenna. Faults scheduled here affect only radio state,
/// never the channel's RNG consumption, so the same fault schedule replays
/// bit-identically.
class ChannelFaultControl {
 public:
  virtual ~ChannelFaultControl() = default;

  /// Node `id` dies during the next query's exchange: it still receives the
  /// poll frame (arming / predicate evaluation happens), but its radio is
  /// off by the time the reply turnaround elapses.
  virtual void fail_node(NodeId id) = 0;

  /// A failed node powers back on immediately and re-learns the current bin
  /// assignment on the next query (the re-announce is free in the paper's
  /// cost model).
  virtual void restore_node(NodeId id) = 0;

  /// The initiator is deaf for the next query's exchange: replies are lost
  /// at its antenna (the frame-level false-empty mechanism). One-shot.
  virtual void suppress_next_query() = 0;
};

class QueryChannel {
 public:
  explicit QueryChannel(CollisionModel model) : model_(model) {}
  virtual ~QueryChannel() = default;

  QueryChannel(const QueryChannel&) = delete;
  QueryChannel& operator=(const QueryChannel&) = delete;

  CollisionModel model() const { return model_; }

  /// Announces a round's bin structure (one broadcast on the packet tier;
  /// free — announcements are not queries in the paper's cost model, they
  /// ride on the poll message of the first query).
  void announce(const BinAssignment& a) { do_announce(a); }

  /// Queries bin `idx` of the announced assignment. Costs one query.
  BinQueryResult query_bin(const BinAssignment& a, std::size_t idx) {
    ++queries_;
    return do_query_bin(a, idx);
  }

  /// Queries an ad-hoc node set (the probabilistic sampling bin). Costs one
  /// query.
  BinQueryResult query_set(std::span<const NodeId> nodes) {
    ++queries_;
    return do_query_set(nodes);
  }

  QueryCount queries_used() const { return queries_; }
  void reset_query_counter() { queries_ = 0; }

  /// Capability bit: true when this channel may *misreport* a query — drop
  /// a non-empty bin to silence (HACK loss), fail to decode a lone reply,
  /// or read foreign energy as activity. On a lossy channel an empty result
  /// proves nothing and the 2+ "activity ⇒ ≥2" inference is unsound; the
  /// round engine keys its soundness gate and retry policies off this bit,
  /// and the conformance checker reads which inferences to demand from it.
  virtual bool lossy() const { return false; }

  /// Oracle hooks for idealised accounting and lower-bound baselines; only
  /// ground-truth-capable channels implement them (the exact tier). Real
  /// channels return nullopt and callers must cope.
  virtual std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const {
    (void)nodes;
    return std::nullopt;
  }

  /// Bin-indexed variant of the oracle hook: the span overload over the
  /// bin's members. No channel in the library overrides it; a whole
  /// announced assignment is counted at once by oracle_bin_counts().
  virtual std::optional<std::size_t> oracle_positive_count(
      const BinAssignment& a, std::size_t idx) const {
    return oracle_positive_count(a.bin(idx));
  }

  /// Bulk variant of the bin-indexed oracle hook: every bin's positive
  /// count as one contiguous array (bin i at index i, valid until the next
  /// mutation of channel or assignment), or nullptr when this channel has
  /// no cheap whole-assignment answer. The exact tier serves the array it
  /// counts once per announced assignment; callers must fall back to
  /// per-bin oracle_positive_count on nullptr (an unannounced assignment,
  /// or a channel without ground truth).
  virtual const std::uint32_t* oracle_bin_counts(const BinAssignment& a) const {
    (void)a;
    return nullptr;
  }

  /// Frame-level fault hooks, when this channel can honour them (the packet
  /// tier). nullptr means fault injectors must fall back to query-level
  /// semantics (filtering crashed nodes out of the queried set). Decorators
  /// that sit between a fault injector and the base channel forward this.
  virtual ChannelFaultControl* fault_control() { return nullptr; }

 protected:
  /// For implementations that internally re-issue an exchange (the packet
  /// tier's backoff re-polls): each physical re-poll occupies a slot and
  /// must count as a query, or the paper's cost accounting would lie.
  void count_extra_query() { ++queries_; }

  virtual void do_announce(const BinAssignment& a) { (void)a; }
  virtual BinQueryResult do_query_bin(const BinAssignment& a,
                                      std::size_t idx) {
    return do_query_set(a.bin(idx));
  }
  virtual BinQueryResult do_query_set(std::span<const NodeId> nodes) = 0;

 private:
  CollisionModel model_;
  QueryCount queries_ = 0;
};

}  // namespace tcast::group
