#include "group/exact_channel.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcast::group {

const char* to_string(CollisionModel m) {
  switch (m) {
    case CollisionModel::kOnePlus: return "1+";
    case CollisionModel::kTwoPlus: return "2+";
  }
  return "?";
}

ExactChannel::ExactChannel(std::vector<bool> positive, RngStream& rng,
                           Config cfg)
    : ExactChannel(positive.size(), 0, rng, std::move(cfg)) {
  for (std::size_t i = 0; i < positive.size(); ++i)
    if (positive[i]) positive_.insert(static_cast<NodeId>(i));
}

ExactChannel::ExactChannel(std::size_t n, std::size_t x, RngStream& rng,
                           Config cfg)
    : QueryChannel(cfg.model),
      positive_(n),
      rng_(&rng),
      capture_(cfg.capture ? std::move(cfg.capture)
                           : std::make_shared<radio::GeometricCaptureModel>()) {
  nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) nodes_[i] = static_cast<NodeId>(i);
  if (x > 0) assign_random_positives(x, rng);
}

ExactChannel ExactChannel::with_random_positives(std::size_t n, std::size_t x,
                                                 RngStream& rng) {
  return with_random_positives(n, x, rng, Config{});
}

ExactChannel ExactChannel::with_random_positives(std::size_t n, std::size_t x,
                                                 RngStream& rng, Config cfg) {
  return ExactChannel(n, x, rng, std::move(cfg));
}

void ExactChannel::set_positive(NodeId id, bool value) {
  TCAST_CHECK(static_cast<std::size_t>(id) < positive_.universe());
  counts_valid_ = false;
  if (value)
    positive_.insert(id);
  else
    positive_.erase(id);
}

void ExactChannel::assign_random_positives(std::size_t x, RngStream& rng) {
  const std::size_t n = positive_.universe();
  TCAST_CHECK(x <= n);
  counts_valid_ = false;
  positive_.clear();
  // Exactly the draw sequence of rng.sample_subset(n, x): a partial
  // Fisher-Yates over an iota pool, x draws of uniform_below(n - i). The
  // sorted-output step of sample_subset draws nothing, and set membership
  // is order-free, so inserting unsorted is equivalent.
  pool_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    pool_scratch_[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < x; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(n - i));
    std::swap(pool_scratch_[i], pool_scratch_[j]);
    positive_.insert(pool_scratch_[i]);
  }
}

std::optional<std::size_t> ExactChannel::oracle_positive_count(
    std::span<const NodeId> nodes) const {
  std::size_t count = 0;
  for (const NodeId id : nodes)
    if (positive_.test(id)) ++count;
  return count;
}

void ExactChannel::do_announce(const BinAssignment& a) {
  announced_version_ = a.version();
  counts_valid_ = false;
}

const std::uint32_t* ExactChannel::oracle_bin_counts(
    const BinAssignment& a) const {
  // Versions are globally unique per assign event, so matching the
  // announced version proves `a` carries exactly the announced content —
  // even if it is a different object, or the announced one was re-assigned
  // in place since.
  if (a.version() != announced_version_ || announced_version_ == 0)
    return nullptr;
  if (!counts_valid_) {
    const std::size_t bins = a.bin_count();
    counts_.resize(bins);
    if (a.has_bin_words()) {
      const auto pos = positive_.words();
      simd::bin_intersection_counts(pos.data(), pos.size(),
                                    a.bin_words_arena().data(),
                                    a.words_per_bin(), bins, counts_.data());
    } else {
      // No word image (more than kMaxBinsForWords bins): one walk of the
      // arena, each member tested once.
      for (std::size_t b = 0; b < bins; ++b) {
        std::uint32_t k = 0;
        for (const NodeId id : a.bin(b)) k += positive_.test(id) ? 1u : 0u;
        counts_[b] = k;
      }
    }
    counts_valid_ = true;
  }
  return counts_.data();
}

BinQueryResult ExactChannel::resolve(std::size_t positives,
                                     std::span<const NodeId> bin) {
  if (positives == 0) return BinQueryResult::empty();
  if (model() == CollisionModel::kOnePlus) return BinQueryResult::activity();
  // 2+ model: a lone reply always decodes; collisions may capture.
  const auto idx = capture_->captured_index(positives, *rng_);
  if (!idx) return BinQueryResult::activity();
  // The captured identity is the (idx+1)-th positive in bin order, located
  // by walking the span instead of materialising the positives.
  std::size_t seen = 0;
  for (const NodeId id : bin) {
    if (!positive_.test(id)) continue;
    if (seen == *idx) return BinQueryResult::captured_node(id);
    ++seen;
  }
  TCAST_CHECK_MSG(false, "captured index past the bin's positives");
  return BinQueryResult::activity();
}

BinQueryResult ExactChannel::do_query_bin(const BinAssignment& a,
                                          std::size_t idx) {
  // Hot path: counts already materialized for this exact announcement
  // (versions are globally unique, so the compare alone proves `a` is the
  // announced content). Skips the full re-validation in oracle_bin_counts.
  const std::uint32_t* counts =
      counts_valid_ && a.version() == announced_version_
          ? counts_.data()
          : oracle_bin_counts(a);
  // `a` was never announced (or changed since): walk the bin's members.
  if (counts == nullptr) return do_query_set(a.bin(idx));
  return resolve(counts[idx], a.bin(idx));
}

BinQueryResult ExactChannel::do_query_set(std::span<const NodeId> nodes) {
  if (model() == CollisionModel::kOnePlus) {
    for (const NodeId id : nodes)
      if (positive_.test(id)) return BinQueryResult::activity();
    return BinQueryResult::empty();
  }
  std::size_t k = 0;
  for (const NodeId id : nodes) k += positive_.test(id) ? 1u : 0u;
  return resolve(k, nodes);
}

}  // namespace tcast::group
