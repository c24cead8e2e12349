// Failure injection: nodes dying mid-session, radios silently lossy,
// populations churning between rounds. The exactness guarantees are gone in
// these regimes by design — what we assert is the library's robustness
// contract: sessions terminate, never crash, never report impossible
// states, and errors skew in the direction the physics dictates (silence,
// i.e. false negatives — never phantom positives).
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/two_t_bins.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast {
namespace {

/// A channel decorator that kills (depowers) a random positive node every
/// few queries — sensors failing while the session runs.
class DyingNodesChannel final : public group::QueryChannel {
 public:
  DyingNodesChannel(group::ExactChannel& inner, RngStream& rng,
                    std::size_t kill_every)
      : QueryChannel(inner.model()),
        inner_(&inner),
        rng_(&rng),
        kill_every_(kill_every) {}

  std::size_t killed() const { return killed_; }

 protected:
  group::BinQueryResult do_query_set(
      std::span<const NodeId> nodes) override {
    maybe_kill();
    return inner_->query_set(nodes);
  }

 private:
  void maybe_kill() {
    if (++since_kill_ < kill_every_) return;
    since_kill_ = 0;
    // Kill one currently-positive node, if any survive.
    const auto n = inner_->participant_count();
    for (std::size_t attempt = 0; attempt < n; ++attempt) {
      const auto id = static_cast<NodeId>(rng_->uniform_below(n));
      if (inner_->is_positive(id)) {
        inner_->set_positive(id, false);
        ++killed_;
        return;
      }
    }
  }

  group::ExactChannel* inner_;
  RngStream* rng_;
  std::size_t kill_every_;
  std::size_t since_kill_ = 0;
  std::size_t killed_ = 0;
};

TEST(FailureInjection, SessionsTerminateWhileNodesDie) {
  for (const auto& spec : core::algorithm_registry()) {
    if (spec.needs_oracle) continue;  // oracle reads ground truth mid-kill
    RngStream rng(17);
    auto inner = group::ExactChannel::with_random_positives(64, 30, rng);
    DyingNodesChannel channel(inner, rng, /*kill_every=*/3);
    const auto out =
        spec.run(channel, inner.all_nodes(), 16, rng, core::EngineOptions{});
    // The ground truth moved under the algorithm; any decision is
    // defensible, but the session must terminate in bounded work.
    EXPECT_LE(out.rounds, 100u) << spec.name;
    EXPECT_LE(out.queries, 100000u) << spec.name;
  }
}

TEST(FailureInjection, MassExtinctionYieldsFalse) {
  // Every positive dies immediately: the only consistent answer is false.
  RngStream rng(18);
  auto inner = group::ExactChannel::with_random_positives(64, 20, rng);
  DyingNodesChannel channel(inner, rng, /*kill_every=*/1);
  const auto out = core::run_two_t_bins(channel, inner.all_nodes(), 21, rng);
  // t=21 > initial x=20, and killing only shrinks x.
  EXPECT_FALSE(out.decision);
}

TEST(FailureInjection, PacketTierLossyHacksOnlyCauseFalseNegatives) {
  // Heavy HACK loss: decisions may be wrong, but only in one direction —
  // the initiator can believe fewer positives, never more.
  for (int trial = 0; trial < 20; ++trial) {
    group::PacketChannel::Config cfg;
    cfg.channel.hack = radio::HackReceptionModel(0.5, 0.9);
    cfg.seed = 100 + static_cast<std::uint64_t>(trial);
    std::vector<bool> truth(12, false);
    for (int i = 0; i < 6; ++i) truth[static_cast<std::size_t>(i)] = true;
    group::PacketChannel ch(truth, cfg);
    RngStream rng(cfg.seed);
    core::EngineOptions opts;
    opts.ordering = core::BinOrdering::kInOrder;
    // Threshold 7 > x=6: even a lossy radio must never say true.
    const auto above = core::run_two_t_bins(ch, ch.all_nodes(), 7, rng, opts);
    EXPECT_FALSE(above.decision);
  }
}

TEST(FailureInjection, TestbedSurvivesMidRunReboot) {
  // The Fig. 4 bench between runs: a session arms the responders, then
  // every predicate is cleared. The next session must see an empty world
  // and answer false, with no stale ephemeral addresses leaking HACKs.
  group::PacketChannel::Config cfg;
  cfg.channel.hack = radio::HackReceptionModel();  // calibrated
  cfg.seed = 9;
  group::PacketChannel ch({true, true, true, false, false, false}, cfg);
  RngStream rng(cfg.seed);
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  (void)core::run_two_t_bins(ch, ch.all_nodes(), 2, rng, opts);
  for (const NodeId id : ch.all_nodes()) ch.set_positive(id, false);
  const auto result = core::run_two_t_bins(ch, ch.all_nodes(), 1, rng, opts);
  EXPECT_FALSE(result.decision);
}

TEST(FailureInjection, ChurnBetweenSessionsIsClean) {
  // The same channel serves many sessions while truth flips arbitrarily —
  // query counters and decisions must stay per-session consistent.
  RngStream rng(21);
  auto ch = group::ExactChannel::with_random_positives(32, 0, rng);
  for (std::size_t round = 0; round < 30; ++round) {
    const auto x = static_cast<std::size_t>(rng.uniform_below(33));
    for (NodeId id = 0; id < 32; ++id) ch.set_positive(id, false);
    for (const NodeId id : rng.sample_subset(32, x))
      ch.set_positive(id, true);
    const auto before = ch.queries_used();
    const auto out = core::run_two_t_bins(ch, ch.all_nodes(), 8, rng);
    EXPECT_EQ(out.decision, x >= 8) << "round " << round;
    EXPECT_EQ(out.queries, ch.queries_used() - before);
  }
}

}  // namespace
}  // namespace tcast
