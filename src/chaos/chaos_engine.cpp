#include "chaos/chaos_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "conformance/harness.hpp"
#include "core/registry.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast::chaos {
namespace {

/// Gives an oracle view (and a forwarded ChannelFaultControl) to a channel
/// that lacks one — the packet tier. Ground truth is the positive vector
/// the channel was built from; forwarding fault_control() is what lets the
/// fault layer above reach the packet tier's frame-level hooks through
/// this decorator.
class OracleAdapter final : public group::QueryChannel {
 public:
  OracleAdapter(group::QueryChannel& inner, std::vector<bool> positive)
      : QueryChannel(inner.model()),
        inner_(&inner),
        positive_(std::move(positive)) {}

  bool lossy() const override { return inner_->lossy(); }
  group::ChannelFaultControl* fault_control() override {
    return inner_->fault_control();
  }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    std::size_t count = 0;
    for (const NodeId id : nodes)
      if (positive_.at(static_cast<std::size_t>(id))) ++count;
    return count;
  }

 protected:
  void do_announce(const group::BinAssignment& a) override {
    inner_->announce(a);
  }
  group::BinQueryResult do_query_bin(const group::BinAssignment& a,
                                     std::size_t idx) override {
    return inner_->query_bin(a, idx);
  }
  group::BinQueryResult do_query_set(
      std::span<const NodeId> nodes) override {
    return inner_->query_set(nodes);
  }

 private:
  group::QueryChannel* inner_;
  std::vector<bool> positive_;
};

/// run_session / replay_session share one stack; `replay` selects the
/// fault source (nullptr = draws from scenario.plan).
SessionReport run_impl(const ChaosScenario& sc,
                       const faults::FaultTrace* replay) {
  const auto* spec = core::find_algorithm(sc.algorithm);
  TCAST_CHECK_MSG(spec != nullptr, "unknown algorithm in ChaosScenario");
  TCAST_CHECK_MSG(!spec->needs_oracle,
                  "oracle baselines are not chaos subjects");
  TCAST_CHECK(sc.x <= sc.n);

  RngStream positives_rng(sc.seed, 0);
  RngStream channel_rng(sc.seed, 1);
  RngStream algo_rng(sc.seed, 2);
  std::vector<bool> positive(sc.n, false);
  for (const NodeId id : positives_rng.sample_subset(sc.n, sc.x))
    positive[static_cast<std::size_t>(id)] = true;

  // Base tier.
  std::unique_ptr<group::ExactChannel> exact;
  std::unique_ptr<group::PacketChannel> packet;
  std::unique_ptr<OracleAdapter> adapter;
  group::QueryChannel* base = nullptr;
  std::span<const NodeId> participants;
  if (sc.tier == Tier::kExact) {
    group::ExactChannel::Config ecfg;
    ecfg.model = sc.model;
    exact = std::make_unique<group::ExactChannel>(positive, channel_rng,
                                                  ecfg);
    base = exact.get();
    participants = exact->all_nodes();
  } else {
    group::PacketChannel::Config pcfg;
    pcfg.model = sc.model;
    pcfg.seed = sc.seed;
    pcfg.stream = 1;
    packet = std::make_unique<group::PacketChannel>(positive, pcfg);
    adapter = std::make_unique<OracleAdapter>(*packet, positive);
    base = adapter.get();
    participants = packet->all_nodes();
  }

  // Fault injector: live plan-driven draws, or verbatim trace replay.
  faults::FaultyChannel faulty =
      replay != nullptr
          ? faults::FaultyChannel(*base, participants, *replay)
          : faults::FaultyChannel(*base, participants, sc.plan);

  // Conformance monitors: the checker reads faulty.lossy() to learn which
  // inferences are sound on this stack. The query bound only holds when
  // nothing can inflate the count past the registered worst case (no
  // loss-driven re-querying).
  const double query_bound =
      !faulty.lossy() && sc.retry.kind == core::RetryPolicy::Kind::kNone
          ? conformance::registered_query_bound(sc.algorithm, sc.n, sc.t)
          : 0.0;
  conformance::CheckedChannel checked(faulty, participants, query_bound);

  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;  // cross-tier parity
  opts.retry = sc.retry;

  SessionReport rep;
  rep.scenario = sc;
  rep.outcome = spec->run(checked, participants, sc.t, algo_rng, opts);
  checked.check_outcome(sc.t, rep.outcome);
  rep.violations = checked.violations();
  rep.trace = faults::FaultTrace::record(faulty);
  rep.algo_rng_probe = algo_rng.bits();
  rep.channel_rng_probe =
      sc.tier == Tier::kExact ? channel_rng.bits() : 0;
  return rep;
}

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kExact: return "exact";
    case Tier::kPacket: return "packet";
  }
  return "?";
}

std::optional<Tier> parse_tier(std::string_view text) {
  if (text == "exact") return Tier::kExact;
  if (text == "packet") return Tier::kPacket;
  return std::nullopt;
}

std::string ChaosScenario::spec() const {
  std::string s = "algo=" + algorithm;
  s += ";n=" + std::to_string(n);
  s += ";x=" + std::to_string(x);
  s += ";t=" + std::to_string(t);
  s += ";model=";
  s += group::to_string(model);
  s += ";tier=";
  s += chaos::to_string(tier);
  s += ";seed=" + std::to_string(seed);
  s += ";plan=" + plan.to_spec();
  if (retry.kind != core::RetryPolicy::Kind::kNone)
    s += ";retry=" + retry.spec();
  return s;
}

std::optional<ChaosScenario> ChaosScenario::parse(std::string_view text) {
  ChaosScenario sc;
  if (text.empty()) return std::nullopt;
  for (const auto token : split(text, ';')) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const auto key = token.substr(0, eq);
    const auto value = token.substr(eq + 1);
    if (key == "algo") {
      if (value.empty()) return std::nullopt;
      sc.algorithm = std::string(value);
    } else if (key == "n" || key == "x" || key == "t") {
      if (!parse_int(value, key == "n" ? sc.n : key == "x" ? sc.x : sc.t))
        return std::nullopt;
    } else if (key == "model") {
      if (value == "1+") {
        sc.model = group::CollisionModel::kOnePlus;
      } else if (value == "2+") {
        sc.model = group::CollisionModel::kTwoPlus;
      } else {
        return std::nullopt;
      }
    } else if (key == "tier") {
      const auto tier = parse_tier(value);
      if (!tier) return std::nullopt;
      sc.tier = *tier;
    } else if (key == "seed") {
      if (!parse_int(value, sc.seed)) return std::nullopt;
    } else if (key == "plan") {
      const auto plan = faults::FaultPlan::parse(value);
      if (!plan) return std::nullopt;
      sc.plan = *plan;
    } else if (key == "retry") {
      const auto retry = core::RetryPolicy::parse(value);
      if (!retry) return std::nullopt;
      sc.retry = *retry;
    } else {
      return std::nullopt;
    }
  }
  if (sc.x > sc.n) return std::nullopt;
  return sc;
}

SessionReport run_session(const ChaosScenario& scenario) {
  return run_impl(scenario, nullptr);
}

SessionReport replay_session(const ChaosScenario& scenario,
                             const faults::FaultTrace& trace) {
  return run_impl(scenario, &trace);
}

std::vector<faults::FaultPlan> default_plan_grid(std::uint64_t seed) {
  using LP = faults::FaultPlan::LossProcess;
  std::vector<faults::FaultPlan> plans;
  const auto add = [&plans, seed](faults::FaultPlan p) {
    p.seed = seed + plans.size();
    plans.push_back(p);
  };
  add({});  // clean — must be violation-free under the exact monitors
  faults::FaultPlan iid;
  iid.process = LP::kIid;
  iid.loss = 0.05;
  add(iid);
  faults::FaultPlan iid_dg = iid;
  iid_dg.loss = 0.15;
  iid_dg.capture_downgrade = 0.1;
  add(iid_dg);
  faults::FaultPlan ge;
  ge.process = LP::kGilbertElliott;  // defaults: 0.02:0.25:0:0.7
  add(ge);
  faults::FaultPlan ge_dg = ge;
  ge_dg.capture_downgrade = 0.1;
  add(ge_dg);
  faults::FaultPlan crash;
  crash.crash_rate = 0.02;
  add(crash);
  faults::FaultPlan crash_reboot = crash;
  crash_reboot.reboot_after = 4;
  add(crash_reboot);
  faults::FaultPlan storm = ge;
  storm.crash_rate = 0.02;
  storm.reboot_after = 6;
  add(storm);
  return plans;
}

CampaignConfig counting_campaign_config(std::uint64_t seed) {
  using LP = faults::FaultPlan::LossProcess;
  CampaignConfig cfg;
  cfg.seed = seed;
  for (const auto& spec : core::algorithm_registry())
    if (spec.name.starts_with("count:")) cfg.algorithms.push_back(spec.name);
  const auto add = [&cfg, seed](faults::FaultPlan p) {
    p.seed = seed + cfg.plans.size();
    cfg.plans.push_back(p);
  };
  add({});  // clean control: exact estimators must be exactly right here
  faults::FaultPlan iid;
  iid.process = LP::kIid;
  iid.loss = 0.1;
  add(iid);
  faults::FaultPlan ge;
  ge.process = LP::kGilbertElliott;
  add(ge);
  faults::FaultPlan crash;
  crash.crash_rate = 0.02;
  add(crash);
  faults::FaultPlan crash_reboot = crash;
  crash_reboot.reboot_after = 4;
  add(crash_reboot);
  return cfg;
}

std::vector<ChaosScenario> campaign_scenarios(const CampaignConfig& cfg) {
  std::vector<std::string> algorithms = cfg.algorithms;
  if (algorithms.empty()) {
    for (const auto& spec : core::algorithm_registry())
      if (!spec.needs_oracle) algorithms.push_back(spec.name);
  }
  const auto plans =
      cfg.plans.empty() ? default_plan_grid(cfg.seed) : cfg.plans;

  // The scenario list is built single-threaded from one dedicated stream,
  // so it — and therefore the whole campaign — is a pure function of cfg.
  RngStream gen(cfg.seed, /*stream=*/0xC4A05ULL);
  std::vector<ChaosScenario> scenarios;
  scenarios.reserve(algorithms.size() * cfg.tiers.size() * plans.size() *
                    cfg.sessions_per_cell);
  for (const auto& algo : algorithms) {
    for (const Tier tier : cfg.tiers) {
      const std::size_t max_n =
          tier == Tier::kExact ? cfg.max_exact_n : cfg.max_packet_n;
      for (const auto& plan : plans) {
        for (std::size_t s = 0; s < cfg.sessions_per_cell; ++s) {
          ChaosScenario sc;
          sc.algorithm = algo;
          sc.tier = tier;
          sc.n = 1 + static_cast<std::size_t>(gen.uniform_below(max_n));
          sc.x = static_cast<std::size_t>(gen.uniform_below(sc.n + 1));
          sc.t = static_cast<std::size_t>(gen.uniform_below(sc.n + 2));
          sc.model = gen.uniform_below(2) == 0
                         ? group::CollisionModel::kOnePlus
                         : group::CollisionModel::kTwoPlus;
          sc.plan = plan;
          sc.plan.seed = gen.bits();
          sc.retry = cfg.retry;
          sc.seed = gen.bits();
          scenarios.push_back(sc);
        }
      }
    }
  }
  return scenarios;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  const auto scenarios = campaign_scenarios(cfg);
  struct BatchCtx {
    const std::vector<ChaosScenario>* scenarios;
    std::vector<SessionReport>* reports;
  };
  std::vector<SessionReport> reports(scenarios.size());
  BatchCtx ctx{&scenarios, &reports};
  ThreadPool* pool = cfg.pool != nullptr ? cfg.pool : &ThreadPool::global();
  pool->run_batch(
      scenarios.size(),
      [](void* raw, std::size_t i) {
        auto& c = *static_cast<BatchCtx*>(raw);
        (*c.reports)[i] = run_session((*c.scenarios)[i]);
      },
      &ctx);

  CampaignResult result;
  result.sessions = reports.size();
  for (auto& rep : reports) {
    result.faults_injected += rep.trace.events.size();
    if (rep.false_yes()) ++result.false_yes;
    if (rep.false_no()) ++result.false_no;
    if (!rep.ok()) result.violating.push_back(std::move(rep));
  }
  return result;
}

}  // namespace tcast::chaos
