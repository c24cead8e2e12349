#include "faults/faulty_channel.hpp"

#include <algorithm>

namespace tcast::faults {

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             FaultPlan plan)
    : FaultyChannel(inner, participants, plan, {}, plan.lossy()) {}

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             const FaultTrace& trace)
    : FaultyChannel(inner, participants, FaultPlan{}, trace.events,
                    trace.lossy) {}

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             FaultPlan plan, std::vector<FaultEvent> script,
                             bool lossy)
    : QueryChannel(inner.model()),
      inner_(&inner),
      ctrl_(inner.fault_control()),
      plan_(plan),
      lossy_(lossy),
      rng_(plan.seed, /*stream=*/0xFA17ULL),  // fixed fault stream id
      script_(std::move(script)),
      participants_(participants.begin(), participants.end()) {
  std::stable_sort(script_.begin(), script_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_query < b.at_query;
                   });
  NodeId max_id = 0;
  for (const NodeId id : participants_) max_id = std::max(max_id, id);
  state_.assign(static_cast<std::size_t>(max_id) + 1, NodeState::kAbsent);
  for (const NodeId id : participants_)
    state_[static_cast<std::size_t>(id)] = NodeState::kUp;
  reboot_due_.assign(state_.size(), 0);
}

bool FaultyChannel::loss_draw() {
  switch (plan_.process) {
    case FaultPlan::LossProcess::kNone:
      return false;
    case FaultPlan::LossProcess::kIid:
      return rng_.bernoulli(plan_.loss);
    case FaultPlan::LossProcess::kGilbertElliott:
      // Step the chain, then draw the loss of the state just entered. Two
      // RNG draws per query regardless of outcome, so replays stay aligned.
      ge_bad_ = ge_bad_ ? !rng_.bernoulli(plan_.ge_exit_bad)
                        : rng_.bernoulli(plan_.ge_enter_bad);
      return rng_.bernoulli(ge_bad_ ? plan_.ge_loss_bad
                                    : plan_.ge_loss_good);
  }
  return false;
}

void FaultyChannel::draw(QueryCount at) {
  // Draws happen unconditionally (for each enabled fault class) and before
  // the query, so the per-query RNG consumption is constant whatever the
  // result or the tier.
  if (plan_.crash_rate > 0.0) {
    const auto rebooting = [&](std::size_t idx) {
      return plan_.reboot_after > 0 && state_[idx] == NodeState::kDown &&
             reboot_due_[idx] <= at;
    };
    for (std::size_t idx = 0; crashed_count_ > 0 && idx < state_.size(); ++idx)
      if (rebooting(idx))
        pending_.push_back(
            {FaultEvent::Kind::kReboot, at, static_cast<NodeId>(idx)});
    if (rng_.bernoulli(plan_.crash_rate)) {
      // Uniform victim among the participants up once those reboots fire.
      std::vector<NodeId> up;
      up.reserve(participants_.size());
      for (const NodeId id : participants_) {
        const auto idx = static_cast<std::size_t>(id);
        if (state_[idx] == NodeState::kUp || rebooting(idx)) up.push_back(id);
      }
      if (!up.empty()) {
        const NodeId victim =
            up[static_cast<std::size_t>(rng_.uniform_below(up.size()))];
        if (plan_.reboot_after > 0)
          reboot_due_[static_cast<std::size_t>(victim)] =
              at + plan_.reboot_after;
        pending_.push_back({FaultEvent::Kind::kCrash, at, victim});
      }
    }
  }
  if (loss_draw()) pending_.push_back({FaultEvent::Kind::kFalseEmpty, at});
  if (plan_.capture_downgrade > 0.0 &&
      rng_.bernoulli(plan_.capture_downgrade))
    pending_.push_back({FaultEvent::Kind::kCaptureDowngrade, at});
  if (plan_.spurious_activity > 0.0 &&
      rng_.bernoulli(plan_.spurious_activity))
    pending_.push_back({FaultEvent::Kind::kSpuriousActivity, at});
}

void FaultyChannel::begin_query(QueryCount at) {
  pending_.clear();
  draw(at);
  while (cursor_ < script_.size() && script_[cursor_].at_query < at)
    ++cursor_;
  for (; cursor_ < script_.size() && script_[cursor_].at_query == at;
       ++cursor_)
    pending_.push_back(script_[cursor_]);

  for (const FaultEvent& e : pending_) {
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kReboot: {
        const auto idx = static_cast<std::size_t>(e.node);
        if (idx >= state_.size() || state_[idx] == NodeState::kAbsent) break;
        if (e.kind == FaultEvent::Kind::kCrash) {
          if (state_[idx] == NodeState::kUp) ++crashed_count_;
          state_[idx] = NodeState::kDown;
          if (ctrl_) ctrl_->fail_node(e.node);
        } else {
          if (state_[idx] == NodeState::kDown) --crashed_count_;
          state_[idx] = NodeState::kUp;
          if (ctrl_) ctrl_->restore_node(e.node);
        }
        log_.record(e.kind, at, e.node);
        break;
      }
      case FaultEvent::Kind::kFalseEmpty:
        // Frame level: losses happen on the air, before the result exists.
        // Logged unconditionally — the initiator was deaf for the exchange
        // even if the bin was silent.
        if (ctrl_) {
          ctrl_->suppress_next_query();
          log_.record(FaultEvent::Kind::kFalseEmpty, at);
        }
        break;
      default:
        break;  // result-rewriting events apply in end_query
    }
  }
}

group::BinQueryResult FaultyChannel::end_query(group::BinQueryResult r,
                                               QueryCount at) {
  // Sequential application, so a lost reply plus interference legitimately
  // reads as spurious activity.
  for (const FaultEvent& e : pending_) {
    switch (e.kind) {
      case FaultEvent::Kind::kFalseEmpty:
        if (!ctrl_ && r.nonempty()) {
          log_.record(FaultEvent::Kind::kFalseEmpty, at);
          r = group::BinQueryResult::empty();
        }
        break;
      case FaultEvent::Kind::kCaptureDowngrade:
        if (r.kind == group::BinQueryResult::Kind::kCaptured) {
          // Log the node actually captured in *this* run, which may differ
          // from the recorded one when replaying on a different stack.
          log_.record(FaultEvent::Kind::kCaptureDowngrade, at, r.captured);
          r = group::BinQueryResult::activity();
        }
        break;
      case FaultEvent::Kind::kSpuriousActivity:
        if (r.kind == group::BinQueryResult::Kind::kEmpty) {
          log_.record(FaultEvent::Kind::kSpuriousActivity, at);
          r = group::BinQueryResult::activity();
        }
        break;
      default:
        break;  // crash/reboot applied in begin_query
    }
  }
  return r;
}

bool FaultyChannel::filters(std::span<const NodeId> nodes) const {
  return !ctrl_ && crashed_count_ > 0 &&
         std::any_of(nodes.begin(), nodes.end(),
                     [this](NodeId id) { return is_crashed(id); });
}

std::span<const NodeId> FaultyChannel::alive(std::span<const NodeId> nodes) {
  alive_.clear();
  for (const NodeId id : nodes)
    if (!is_crashed(id)) alive_.push_back(id);
  return alive_;
}

group::BinQueryResult FaultyChannel::do_query_bin(
    const group::BinAssignment& a, std::size_t idx) {
  const QueryCount at = queries_used() - 1;  // base class already counted us
  begin_query(at);
  const auto bin = a.bin(idx);
  return end_query(filters(bin) ? inner_->query_set(alive(bin))
                                : inner_->query_bin(a, idx),
                   at);
}

group::BinQueryResult FaultyChannel::do_query_set(
    std::span<const NodeId> nodes) {
  const QueryCount at = queries_used() - 1;
  begin_query(at);
  return end_query(filters(nodes) ? inner_->query_set(alive(nodes))
                                  : inner_->query_set(nodes),
                   at);
}

}  // namespace tcast::faults
