// InstrumentedChannel: decorator recording a full query transcript.
//
// Wraps any QueryChannel; used by tests to assert algorithm behaviour
// (bin sizes, round structure, soundness of every inference against ground
// truth), and by the Fig-4 driver (testbed/experiment) for its bin-level
// error census. The inner channel's own counter still advances — read the
// decorator's counter.
#pragma once

#include <vector>

#include "group/query_channel.hpp"

namespace tcast::group {

class InstrumentedChannel final : public QueryChannel {
 public:
  struct Record {
    std::vector<NodeId> nodes;  ///< the queried set
    BinQueryResult result;
    std::optional<std::size_t> true_positives;  ///< if inner has an oracle
  };

  /// One announced round structure (the full bin partition), plus where in
  /// the query transcript it happened — the conformance partition checks
  /// need the bin structure, not just that an announce occurred.
  struct Announcement {
    std::vector<std::vector<NodeId>> bins;
    std::size_t at_query = 0;  ///< transcript index when announced
  };

  explicit InstrumentedChannel(QueryChannel& inner)
      : QueryChannel(inner.model()), inner_(&inner) {}

  const std::vector<Record>& transcript() const { return transcript_; }
  const std::vector<Announcement>& announcements() const {
    return announcements_;
  }
  std::size_t announces() const { return announcements_.size(); }
  void clear() {
    transcript_.clear();
    announcements_.clear();
  }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return inner_->oracle_positive_count(nodes);
  }

  bool lossy() const override { return inner_->lossy(); }

 protected:
  void do_announce(const BinAssignment& a) override {
    Announcement ann;
    ann.bins.reserve(a.bin_count());
    for (std::size_t i = 0; i < a.bin_count(); ++i) {
      const auto bin = a.bin(i);
      ann.bins.emplace_back(bin.begin(), bin.end());
    }
    ann.at_query = transcript_.size();
    announcements_.push_back(std::move(ann));
    inner_->announce(a);
  }

  BinQueryResult do_query_bin(const BinAssignment& a,
                              std::size_t idx) override {
    return record(a.bin(idx), inner_->query_bin(a, idx));
  }

  BinQueryResult do_query_set(std::span<const NodeId> nodes) override {
    return record(nodes, inner_->query_set(nodes));
  }

 private:
  BinQueryResult record(std::span<const NodeId> nodes, BinQueryResult r) {
    Record rec;
    rec.nodes.assign(nodes.begin(), nodes.end());
    rec.result = r;
    rec.true_positives = inner_->oracle_positive_count(nodes);
    transcript_.push_back(std::move(rec));
    return r;
  }

  QueryChannel* inner_;
  std::vector<Record> transcript_;
  std::vector<Announcement> announcements_;
};

}  // namespace tcast::group
