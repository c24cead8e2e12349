// ReferenceExactChannel: the scalar test oracle for group::ExactChannel.
//
// The exact tier's semantics written the plainest way: ground truth is a
// std::vector<bool>, and every query is a bounds-checked walk over the
// queried ids into a per-query vector of positives, from which the 2+
// capture pick is taken. Ground truth comes from rng.sample_subset(n, x) and
// capture from the same CaptureModel::captured_index draw ExactChannel
// makes, so the differential suites (fastpath_differential_test,
// simd_differential_test) can demand that production match it bit for bit:
// decision, every outcome counter, query count and RNG consumption.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "group/query_channel.hpp"
#include "radio/capture.hpp"

namespace tcast::conformance {

class ReferenceExactChannel final : public group::QueryChannel {
 public:
  /// n participants with a uniformly random x-subset positive, drawn from
  /// `rng`. `rng` is also borrowed for capture draws and must outlive the
  /// channel; a null `capture` means GeometricCaptureModel defaults.
  ReferenceExactChannel(std::size_t n, std::size_t x, RngStream& rng,
                        group::CollisionModel model,
                        std::shared_ptr<radio::CaptureModel> capture = nullptr)
      : QueryChannel(model),
        positive_(n, false),
        nodes_(n),
        rng_(&rng),
        capture_(capture ? std::move(capture)
                         : std::make_shared<radio::GeometricCaptureModel>()) {
    for (const NodeId id : rng.sample_subset(n, x))
      positive_[static_cast<std::size_t>(id)] = true;
    for (std::size_t i = 0; i < n; ++i) nodes_[i] = static_cast<NodeId>(i);
  }

  /// All participant ids [0, n).
  std::span<const NodeId> all_nodes() const { return nodes_; }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return positives_in(nodes).size();
  }

 protected:
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override {
    const std::vector<NodeId> positives = positives_in(nodes);
    if (positives.empty()) return group::BinQueryResult::empty();
    if (model() == group::CollisionModel::kOnePlus)
      return group::BinQueryResult::activity();
    const auto idx = capture_->captured_index(positives.size(), *rng_);
    if (idx) return group::BinQueryResult::captured_node(positives.at(*idx));
    return group::BinQueryResult::activity();
  }

 private:
  std::vector<NodeId> positives_in(std::span<const NodeId> nodes) const {
    std::vector<NodeId> out;
    for (const NodeId id : nodes)
      if (positive_.at(static_cast<std::size_t>(id))) out.push_back(id);
    return out;
  }

  std::vector<bool> positive_;
  std::vector<NodeId> nodes_;
  RngStream* rng_;
  std::shared_ptr<radio::CaptureModel> capture_;
};

}  // namespace tcast::conformance
