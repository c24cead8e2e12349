#include "core/registry.hpp"

#include "core/abns.hpp"
#include "core/counting.hpp"
#include "core/exponential_increase.hpp"
#include "core/oracle.hpp"
#include "core/probabilistic_abns.hpp"
#include "core/two_t_bins.hpp"

namespace tcast::core {

const std::vector<AlgorithmSpec>& algorithm_registry() {
  static const std::vector<AlgorithmSpec> registry = [] {
    std::vector<AlgorithmSpec> specs;
    specs.push_back(
        {"2tbins", "Algorithm 1: 2t equal-sized random bins per round", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_two_t_bins(ch, nodes, t, rng, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) { return run_two_t_bins(engine, nodes, t); }});
    specs.push_back(
        {"expinc", "Algorithm 2: start at 2 bins, double every round", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_exponential_increase(ch, nodes, t, rng, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) {
           return run_exponential_increase(engine, nodes, t);
         }});
    specs.push_back(
        {"expinc-pause",
         "Sec. IV-B variation: pause doubling after productive rounds", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_pause_and_continue(ch, nodes, t, rng, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) {
           return run_pause_and_continue(engine, nodes, t);
         }});
    specs.push_back(
        {"expinc-fourfold",
         "Sec. IV-B variation: quadruple after all-non-empty rounds", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_four_fold(ch, nodes, t, rng, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) { return run_four_fold(engine, nodes, t); }});
    specs.push_back(
        {"abns:t", "Algorithm 3: ABNS seeded with p0 = t", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_abns(ch, nodes, t, rng,
                           AbnsOptions{static_cast<double>(t)}, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) {
           return run_abns(engine, nodes, t,
                           AbnsOptions{static_cast<double>(t)});
         }});
    specs.push_back(
        {"abns:2t", "Algorithm 3: ABNS seeded with p0 = 2t", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_abns(ch, nodes, t, rng,
                           AbnsOptions{2.0 * static_cast<double>(t)}, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) {
           return run_abns(engine, nodes, t,
                           AbnsOptions{2.0 * static_cast<double>(t)});
         }});
    specs.push_back(
        {"prob-abns",
         "Sec. V-D: one sampling query, then ABNS(t/4) or 2tBins", false,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_probabilistic_abns(ch, nodes, t, rng, opts);
         },
         // No single-engine entry point: the sampling query runs outside
         // the engine session, so lanes fall back to the channel overload.
         {}});
    // The counting portfolio, adapted to threshold queries: estimate (or
    // count exactly), then verify with an exact engine session whose shape
    // the estimate picks. One registry entry per counting estimator, so the
    // conformance, fault and chaos harnesses audit all of them for free.
    for (const auto& counting : counting_registry()) {
      specs.push_back(
          {"count:" + counting.name,
           "threshold-via-count adapter over " + counting.name, false,
           [name = counting.name](group::QueryChannel& ch,
                                  std::span<const NodeId> nodes,
                                  std::size_t t, RngStream& rng,
                                  const EngineOptions& opts) {
             return run_threshold_via_count(ch, nodes, t, rng, name, opts);
           },
           // Estimate + verify are two separate engine sessions; no
           // single-engine entry point.
           {}});
    }
    specs.push_back(
        {"oracle", "Sec. V-C lower-bound reference (needs ground truth)",
         true,
         [](group::QueryChannel& ch, std::span<const NodeId> nodes,
            std::size_t t, RngStream& rng, const EngineOptions& opts) {
           return run_oracle(ch, nodes, t, rng, opts);
         },
         [](RoundEngine& engine, std::span<const NodeId> nodes,
            std::size_t t) { return run_oracle(engine, nodes, t); }});
    return specs;
  }();
  return registry;
}

const AlgorithmSpec* find_algorithm(std::string_view name) {
  for (const auto& spec : algorithm_registry())
    if (spec.name == name) return &spec;
  return nullptr;
}

}  // namespace tcast::core
