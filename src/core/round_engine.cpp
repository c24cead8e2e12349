#include "core/round_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace tcast::core {

std::optional<RetryPolicy> RetryPolicy::parse(std::string_view text) {
  if (text == "none") return none();
  if (text.starts_with("fixed:")) {
    std::size_t retries = 0;
    if (!parse_int(text.substr(6), retries)) return std::nullopt;
    return fixed(retries);
  }
  if (text.starts_with("adaptive:")) {
    auto rest = text.substr(9);
    const auto colon = rest.find(':');
    double target = 0.0;
    if (!parse_double(rest.substr(0, colon), target) || !(target > 0.0) ||
        target >= 1.0)
      return std::nullopt;
    std::size_t cap = 8;
    if (colon != std::string_view::npos &&
        (!parse_int(rest.substr(colon + 1), cap) || cap < 1))
      return std::nullopt;
    return adaptive(target, cap);
  }
  return std::nullopt;
}

std::string RetryPolicy::spec() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kFixed:
      return "fixed:" + std::to_string(retries);
    case Kind::kAdaptive: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "adaptive:%g:%zu", target_residual,
                    max_retries);
      return buf;
    }
  }
  return "none";
}

RoundEngine::RoundEngine(group::QueryChannel& channel, RngStream& rng,
                         EngineOptions opts)
    : channel_(&channel), rng_(&rng), opts_(opts) {}

std::size_t RoundEngine::clamp_bins(std::size_t b,
                                    std::size_t candidates) const {
  return std::clamp<std::size_t>(b, 1, std::max<std::size_t>(1, candidates));
}

void RoundEngine::make_assignment(std::span<NodeId> candidates,
                                  std::size_t bins,
                                  group::BinAssignment& out) {
  switch (opts_.scheme) {
    case BinningScheme::kContiguous:
      out.assign_contiguous(candidates, bins);
      return;
    case BinningScheme::kRandomEqual:
      break;
  }
  // In-place: candidates_ is rebuilt from the alive words after every
  // round, so permuting it here is free (and skips the scratch copy).
  out.assign_random_equal_inplace(candidates, bins, *rng_);
}

void RoundEngine::query_order(const group::BinAssignment& a,
                              std::vector<std::size_t>& order) const {
  const std::size_t bins = a.bin_count();
  order.resize(bins);
  if (opts_.ordering != BinOrdering::kNonEmptyFirst) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    return;
  }
  // Stable two-bucket partition on a 0/1 key — exactly what the historical
  // stable_sort(nonempty desc) produced, in one linear pass: non-empty bins
  // in index order, then empty bins in index order. Channels with a batched
  // whole-assignment count cache answer both passes from one array (which
  // writes every order slot, so no iota prefill needed).
  if (const std::uint32_t* counts = channel_->oracle_bin_counts(a)) {
    std::size_t next = 0;
    for (std::size_t i = 0; i < bins; ++i)
      if (counts[i] != 0) order[next++] = i;
    for (std::size_t i = 0; i < bins; ++i)
      if (counts[i] == 0) order[next++] = i;
    return;
  }
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Idealised accounting needs ground truth; degrade gracefully without it.
  nonempty_.assign(bins, 0);
  for (std::size_t i = 0; i < bins; ++i) {
    const auto count = channel_->oracle_positive_count(a, i);
    if (!count) return;  // realistic channel: natural order
    nonempty_[i] = *count > 0 ? 1 : 0;
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < bins; ++i)
    if (nonempty_[i]) order[next++] = i;
  for (std::size_t i = 0; i < bins; ++i)
    if (!nonempty_[i]) order[next++] = i;
}

ThresholdOutcome RoundEngine::run(std::span<const NodeId> participants,
                                  std::size_t threshold,
                                  BinCountPolicy& policy) {
  ThresholdOutcome out;
  const QueryCount queries_at_start = channel_->queries_used();
  const auto finish = [&](bool decision, std::size_t alive_count) {
    out.decision = decision;
    out.queries = channel_->queries_used() - queries_at_start;
    out.remaining_candidates = alive_count;
    return out;
  };
  // Cancellation is polled before every query (the engine's unit of work),
  // so a blown deadline aborts mid-round without fabricating a verdict.
  const auto cancelled = [&] {
    return opts_.cancel != nullptr && opts_.cancel->cancelled();
  };
  const auto cancel_finish = [&](std::size_t alive_count) {
    out.cancelled = true;
    return finish(false, alive_count);
  };

  if (threshold == 0) return finish(true, participants.size());
  if (participants.size() < threshold) return finish(false, participants.size());

  // Alive set as packed words: removal is a bit clear, and disposing a whole
  // silent bin is a word-level ANDNOT against the assignment's bin image.
  // The common case — participants are exactly [0, n), the whole-universe
  // span every channel hands out — is detected by one strictly-increasing
  // scan (which also subsumes the duplicate check) and filled as whole
  // words instead of n single-bit inserts.
  bool iota = !participants.empty() && participants.front() == 0;
  for (std::size_t i = 1; iota && i < participants.size(); ++i)
    iota = participants[i] == static_cast<NodeId>(i);
  if (iota) {
    alive_.reset(participants.size());
    alive_.fill_prefix(participants.size());
  } else {
    NodeId max_id = 0;
    for (const NodeId id : participants) max_id = std::max(max_id, id);
    alive_.reset(static_cast<std::size_t>(max_id) + 1);
    for (const NodeId id : participants) alive_.insert(id);
    TCAST_CHECK_MSG(alive_.count() == participants.size(),
                    "duplicate participant ids");
  }
  std::size_t alive_count = participants.size();
  candidates_.assign(participants.begin(), participants.end());

  std::size_t confirmed = 0;
  std::size_t bins = clamp_bins(policy.initial_bins(candidates_, threshold),
                                alive_count);

  // Soundness gate: the "activity ⇒ ≥2" credit assumes a lone reply always
  // decodes. On a channel that declares itself lossy a lone reply may fail
  // to decode (and read as activity), so the inference would manufacture
  // positives — auto-disable it there, whatever the options say.
  const bool lossy_channel = channel_->lossy();
  const std::size_t activity_lb =
      (channel_->model() == group::CollisionModel::kTwoPlus &&
       opts_.two_plus_activity_counts_two &&
       (!lossy_channel || opts_.unsafe_counts_two_despite_loss))
          ? 2
          : 1;

  // Retry state (only consulted on lossy channels). The adaptive policy
  // estimates the false-empty rate from contradicted silences — a silent
  // bin that answers on re-query was a lost reply — and sizes the retry
  // budget so p̂^(1+retries) ≤ target_residual.
  const bool retry_enabled =
      lossy_channel && opts_.retry.kind != RetryPolicy::Kind::kNone;
  std::size_t empties_observed = 0;  // silent results seen (retry path)
  std::size_t losses_caught = 0;     // silences contradicted by a re-query
  const auto retry_budget = [&]() -> std::size_t {
    switch (opts_.retry.kind) {
      case RetryPolicy::Kind::kNone:
        return 0;
      case RetryPolicy::Kind::kFixed:
        return opts_.retry.retries;
      case RetryPolicy::Kind::kAdaptive: {
        // Laplace-smoothed estimate; pessimistic while data is scarce.
        const double p_hat = (static_cast<double>(losses_caught) + 1.0) /
                             (static_cast<double>(empties_observed) + 2.0);
        const double attempts =
            std::ceil(std::log(opts_.retry.target_residual) /
                      std::log(p_hat));
        const auto extra =
            attempts <= 1.0 ? std::size_t{1}
                            : static_cast<std::size_t>(attempts) - 1;
        return std::clamp<std::size_t>(extra, 1, opts_.retry.max_retries);
      }
    }
    return 0;
  };

  for (std::size_t round = 0; round < opts_.max_rounds; ++round) {
    ++out.rounds;
    make_assignment(candidates_, bins, assignment_);
    const auto& assignment = assignment_;
    channel_->announce(assignment);
    query_order(assignment, order_);

    RoundStats stats;
    stats.round_index = round;
    stats.bins = assignment.bin_count();
    stats.candidates_before = alive_count;
    std::size_t round_lb = 0;  // positives certified by this round's bins

    for (const std::size_t idx : order_) {
      if (cancelled()) return cancel_finish(alive_count);
      auto result = channel_->query_bin(assignment, idx);
      ++stats.bins_queried;
      if (result.kind == group::BinQueryResult::Kind::kEmpty &&
          retry_enabled) {
        // Silence on a lossy channel proves nothing yet: re-query before
        // the disposal commits. Any non-empty answer supersedes it.
        ++empties_observed;
        const std::size_t budget = retry_budget();
        for (std::size_t attempt = 0; attempt < budget; ++attempt) {
          if (cancelled()) return cancel_finish(alive_count);
          ++out.retries;
          const auto again = channel_->query_bin(assignment, idx);
          if (again.kind != group::BinQueryResult::Kind::kEmpty) {
            ++losses_caught;
            ++out.faults_seen;
            result = again;
            break;
          }
        }
      }
      switch (result.kind) {
        case group::BinQueryResult::Kind::kEmpty:
          ++stats.empty_bins;
          // Dispose the whole silent bin. The bins partition this round's
          // candidates and removals only ever touch the queried bin, so the
          // word ANDNOT and the per-member walk remove the same nodes.
          if (assignment.has_bin_words()) {
            alive_count -= alive_.remove_words(assignment.bin_words(idx));
          } else {
            for (const NodeId id : assignment.bin(idx))
              if (alive_.erase(id)) --alive_count;
          }
          break;
        case group::BinQueryResult::Kind::kActivity:
          ++stats.nonempty_bins;
          round_lb += activity_lb;
          break;
        case group::BinQueryResult::Kind::kCaptured: {
          ++stats.nonempty_bins;
          ++stats.captured;
          const NodeId id = result.captured;
          TCAST_CHECK_MSG(id != kNoNode, "captured result without identity");
          if (alive_.erase(id)) --alive_count;
          ++confirmed;
          break;
        }
      }
      out.confirmed_positives = confirmed;
      if (confirmed + round_lb >= threshold)  // Alg. 1 line 11, generalised
        return finish(true, alive_count);
      if (confirmed + alive_count < threshold)  // Alg. 1 line 14, generalised
        return finish(false, alive_count);
    }

    // Round completed without a decision: rebuild candidates from the word
    // image (one countr_zero walk instead of an all-ids scan), consult the
    // policy for the next bin count.
    candidates_.clear();
    alive_.append_members(candidates_);
    TCAST_CHECK(candidates_.size() == alive_count);

    stats.candidates_after = alive_count;
    stats.remaining_threshold = threshold - confirmed;
    std::size_t next = policy.next_bins(stats, candidates_);
    // Anti-livelock: a round that eliminated nothing and captured nothing
    // must not repeat with the same (or smaller) bin count — every-bin-
    // non-empty rounds carry zero information at fixed b.
    const bool progress = stats.empty_bins > 0 || stats.captured > 0;
    if (!progress && next <= bins) next = bins * 2;
    bins = clamp_bins(next, alive_count);
  }
  TCAST_CHECK_MSG(false, "round engine exceeded max_rounds");
  return out;  // unreachable
}

}  // namespace tcast::core
