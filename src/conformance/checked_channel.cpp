#include "conformance/checked_channel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcast::conformance {

const char* to_string(Violation::Category c) {
  switch (c) {
    case Violation::Category::kPartition: return "partition";
    case Violation::Category::kRequery: return "requery";
    case Violation::Category::kTruth: return "truth";
    case Violation::Category::kBound: return "bound";
    case Violation::Category::kOutcome: return "outcome";
  }
  return "?";
}

CheckedChannel::CheckedChannel(group::QueryChannel& inner,
                               std::span<const NodeId> participants,
                               double query_bound)
    : QueryChannel(inner.model()),
      inner_(&inner),
      exact_(!inner.lossy()),
      query_bound_(query_bound),
      participants_(participants.begin(), participants.end()) {
  NodeId max_id = 0;
  for (const NodeId id : participants_) max_id = std::max(max_id, id);
  state_.assign(static_cast<std::size_t>(max_id) + 1, NodeState::kUnknown);
  truth_.assign(state_.size(), 0);
  for (const NodeId id : participants_) {
    const NodeId one[] = {id};
    const auto count = inner.oracle_positive_count(one);
    TCAST_CHECK_MSG(count.has_value(),
                    "CheckedChannel needs an oracle-capable inner channel");
    state_of(id) = NodeState::kCandidate;
    truth_[static_cast<std::size_t>(id)] = *count > 0 ? 1 : 0;
    truth_positive_count_ += *count;
  }
}

void CheckedChannel::add_violation(Violation::Category c,
                                   std::string message) {
  violations_.push_back({c, std::move(message)});
}

void CheckedChannel::do_announce(const group::BinAssignment& a) {
  std::vector<char> seen(state_.size(), 0);
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    for (const NodeId id : a.bin(i)) {
      const auto idx = static_cast<std::size_t>(id);
      if (idx >= state_.size() || state_[idx] == NodeState::kUnknown) {
        add_violation(Violation::Category::kPartition,
                      "announced node " + std::to_string(id) +
                          " is not a participant");
        continue;
      }
      if (seen[idx]) {
        add_violation(Violation::Category::kPartition,
                      "node " + std::to_string(id) +
                          " appears in two bins of one assignment");
      }
      seen[idx] = 1;
      if (state_[idx] != NodeState::kCandidate) {
        add_violation(
            Violation::Category::kRequery,
            "node " + std::to_string(id) + " re-announced after being " +
                (state_[idx] == NodeState::kDisposed ? "disposed"
                                                     : "confirmed"));
      }
    }
  }
  inner_->announce(a);
}

group::BinQueryResult CheckedChannel::check_result(
    std::span<const NodeId> nodes, group::BinQueryResult r,
    bool announced_bin) {
  std::size_t truth = 0;
  for (const NodeId id : nodes) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= state_.size() || state_[idx] == NodeState::kUnknown) {
      add_violation(Violation::Category::kPartition,
                    "queried node " + std::to_string(id) +
                        " is not a participant");
      continue;
    }
    if (truth_[idx]) ++truth;
    if (state_[idx] == NodeState::kDisposed) {
      add_violation(Violation::Category::kRequery,
                    "node " + std::to_string(id) +
                        " queried after disposal (proven negative)");
    }
  }

  switch (r.kind) {
    case group::BinQueryResult::Kind::kEmpty:
      if (truth > 0 && exact_) {
        add_violation(Violation::Category::kTruth,
                      "empty result on a bin holding " +
                          std::to_string(truth) + " real positives");
      }
      // Disposal is only a sound inference on exact channels; under loss a
      // silent bin proves nothing. It is also only *committed* for
      // announced-bin queries: the round-engine contract disposes bins, but
      // an ad-hoc sampling query (the probabilistic-ABNS hint) is a
      // measurement the algorithm may legitimately ignore — the paper's own
      // Sec. V-D re-runs ABNS over the full population after an empty hint.
      if (exact_ && announced_bin) {
        for (const NodeId id : nodes) {
          const auto idx = static_cast<std::size_t>(id);
          if (idx < state_.size() && state_[idx] == NodeState::kCandidate)
            state_[idx] = NodeState::kDisposed;
        }
      }
      break;
    case group::BinQueryResult::Kind::kActivity:
      if (truth == 0) {
        add_violation(Violation::Category::kTruth,
                      "activity reported on a bin with no real positive "
                      "(false positives are structurally impossible)");
      }
      if (model() == group::CollisionModel::kTwoPlus && exact_ &&
          truth < 2) {
        add_violation(Violation::Category::kTruth,
                      "2+ activity (undecoded collision) on a bin with " +
                          std::to_string(truth) +
                          " real positives — a lone reply must decode");
      }
      break;
    case group::BinQueryResult::Kind::kCaptured: {
      if (model() != group::CollisionModel::kTwoPlus) {
        add_violation(Violation::Category::kTruth,
                      "capture reported under the 1+ model");
      }
      const auto idx = static_cast<std::size_t>(r.captured);
      const bool member =
          std::find(nodes.begin(), nodes.end(), r.captured) != nodes.end();
      if (!member) {
        add_violation(Violation::Category::kTruth,
                      "captured node " + std::to_string(r.captured) +
                          " is not in the queried set");
      } else if (!truth_[idx]) {
        add_violation(Violation::Category::kTruth,
                      "captured node " + std::to_string(r.captured) +
                          " is not a real positive");
      }
      if (idx < state_.size() && state_[idx] == NodeState::kCandidate)
        state_[idx] = NodeState::kConfirmed;
      break;
    }
  }

  if (query_bound_ > 0.0 && !bound_reported_ &&
      static_cast<double>(queries_used()) > query_bound_) {
    bound_reported_ = true;
    add_violation(Violation::Category::kBound,
                  "query count " + std::to_string(queries_used()) +
                      " exceeds the registered worst-case bound " +
                      std::to_string(query_bound_));
  }
  return r;
}

group::BinQueryResult CheckedChannel::do_query_bin(
    const group::BinAssignment& a, std::size_t idx) {
  return check_result(a.bin(idx), inner_->query_bin(a, idx),
                      /*announced_bin=*/true);
}

group::BinQueryResult CheckedChannel::do_query_set(
    std::span<const NodeId> nodes) {
  return check_result(nodes, inner_->query_set(nodes),
                      /*announced_bin=*/false);
}

void CheckedChannel::check_outcome(std::size_t threshold,
                                   const core::ThresholdOutcome& out) {
  const bool truth = truth_positive_count_ >= threshold;
  if (exact_) {
    if (out.decision != truth) {
      add_violation(Violation::Category::kOutcome,
                    "decision " + std::string(out.decision ? "true" : "false") +
                        " but ground truth x=" +
                        std::to_string(truth_positive_count_) + " vs t=" +
                        std::to_string(threshold));
    }
  } else if (out.decision && !truth) {
    // Lossy channels only drop replies (false negatives); a `true` answer is
    // still a certificate — nonempty bins within a round are disjoint and
    // each holds a real positive — so it must match ground truth one-sidedly.
    add_violation(Violation::Category::kOutcome,
                  "decision true on a lossy channel with x=" +
                      std::to_string(truth_positive_count_) + " < t=" +
                      std::to_string(threshold) +
                      " — loss can never manufacture positives");
  }
  if (out.queries != queries_used()) {
    add_violation(Violation::Category::kOutcome,
                  "outcome reports " + std::to_string(out.queries) +
                      " queries but the channel answered " +
                      std::to_string(queries_used()));
  }
  if (out.confirmed_positives > truth_positive_count_) {
    add_violation(Violation::Category::kOutcome,
                  "confirmed " + std::to_string(out.confirmed_positives) +
                      " positives but only " +
                      std::to_string(truth_positive_count_) + " exist");
  }
  if (model() == group::CollisionModel::kOnePlus &&
      out.confirmed_positives > 0) {
    add_violation(Violation::Category::kOutcome,
                  "confirmed identities under the 1+ model (no capture)");
  }
  if (query_bound_ > 0.0 &&
      static_cast<double>(out.queries) > query_bound_) {
    if (!bound_reported_) {
      bound_reported_ = true;
      add_violation(Violation::Category::kBound,
                    "query count " + std::to_string(out.queries) +
                        " exceeds the registered worst-case bound " +
                        std::to_string(query_bound_));
    }
  }
}

void CheckedChannel::check_count_outcome(const core::CountOutcome& out) {
  const auto truth = truth_positive_count_;
  if (!exact_ && (out.exact || out.confidence >= 1.0)) {
    add_violation(Violation::Category::kTruth,
                  "counting outcome claims exactness (exact=" +
                      std::string(out.exact ? "true" : "false") +
                      ", confidence=" + std::to_string(out.confidence) +
                      ") on a channel that declares lossy() — silence "
                      "proves nothing there");
  }
  if (out.exact && exact_ && out.estimate != static_cast<double>(truth)) {
    add_violation(Violation::Category::kOutcome,
                  "claimed-exact count " + std::to_string(out.estimate) +
                      " but ground truth x=" + std::to_string(truth));
  }
  if (exact_ && truth == 0 && out.estimate != 0.0) {
    // Activity cannot be manufactured on any tier, so with x = 0 every
    // probe is silent and any estimator must land on 0.
    add_violation(Violation::Category::kOutcome,
                  "estimate " + std::to_string(out.estimate) +
                      " with ground truth x=0 on an exact channel");
  }
  if (out.estimate < 0.0 ||
      out.estimate > static_cast<double>(participants_.size())) {
    add_violation(Violation::Category::kOutcome,
                  "estimate " + std::to_string(out.estimate) +
                      " outside [0, n=" +
                      std::to_string(participants_.size()) + "]");
  }
  if (out.queries != queries_used()) {
    add_violation(Violation::Category::kOutcome,
                  "counting outcome reports " + std::to_string(out.queries) +
                      " queries but the channel answered " +
                      std::to_string(queries_used()));
  }
  if (model() == group::CollisionModel::kOnePlus && !out.confirmed.empty()) {
    add_violation(Violation::Category::kOutcome,
                  "confirmed identities under the 1+ model (no capture)");
  }
  std::vector<NodeId> unique(out.confirmed);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  for (const NodeId id : unique) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= truth_.size() || !truth_[idx]) {
      add_violation(Violation::Category::kOutcome,
                    "confirmed node " + std::to_string(id) +
                        " is not a real positive participant");
    }
  }
}

}  // namespace tcast::conformance
