#include "chaos/shrinker.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/ddmin.hpp"

namespace tcast::chaos {
namespace {

/// Greedily pulls every event's at_query down toward its predecessor (the
/// first event toward 0), shrinking the query prefix a reproducer must
/// run. Events are kept sorted by at_query. Returns true on any change.
bool compact_queries(const ChaosScenario& sc, faults::FaultTrace& trace,
                     const TracePredicate& pred, std::size_t& probes) {
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const faults::FaultEvent& a,
                      const faults::FaultEvent& b) {
                     return a.at_query < b.at_query;
                   });
  bool changed = false;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const QueryCount floor =
        i == 0 ? 0 : trace.events[i - 1].at_query;
    if (trace.events[i].at_query <= floor) continue;
    faults::FaultTrace candidate = trace;
    candidate.events[i].at_query = floor;
    ++probes;
    if (pred(sc, candidate)) {
      trace = std::move(candidate);
      changed = true;
      continue;
    }
    // Full pull failed; try one step down (cheap, often enough to close a
    // gap of exactly one).
    if (trace.events[i].at_query > floor + 1) {
      candidate = trace;
      --candidate.events[i].at_query;
      ++probes;
      if (pred(sc, candidate)) {
        trace = std::move(candidate);
        changed = true;
      }
    }
  }
  return changed;
}

}  // namespace

TracePredicate violates_any() {
  return [](const ChaosScenario& sc, const faults::FaultTrace& trace) {
    return !replay_session(sc, trace).violations.empty();
  };
}

TracePredicate violates_false_yes() {
  return [](const ChaosScenario& sc, const faults::FaultTrace& trace) {
    return replay_session(sc, trace).false_yes();
  };
}

std::string ShrinkResult::replay_spec() const {
  return scenario.spec() + " trace=" + trace.to_spec();
}

std::string ShrinkResult::regression_stanza(
    std::string_view test_name) const {
  std::string s;
  s += "TEST(ChaosRegressions, " + std::string(test_name) + ") {\n";
  s += "  const auto sc = tcast::chaos::ChaosScenario::parse(\n";
  s += "      \"" + scenario.spec() + "\");\n";
  s += "  const auto trace = tcast::faults::FaultTrace::parse(\n";
  s += "      \"" + trace.to_spec() + "\");\n";
  s += "  ASSERT_TRUE(sc.has_value());\n";
  s += "  ASSERT_TRUE(trace.has_value());\n";
  s += "  const auto rep = tcast::chaos::replay_session(*sc, *trace);\n";
  s += "  EXPECT_FALSE(rep.violations.empty());\n";
  s += "}\n";
  return s;
}

ShrinkResult shrink(const ChaosScenario& scenario, faults::FaultTrace trace,
                    const TracePredicate& pred) {
  ShrinkResult result;
  result.scenario = scenario;
  result.original_events = trace.events.size();
  ++result.probes;
  TCAST_CHECK_MSG(pred(scenario, trace),
                  "shrink: predicate does not hold on the input trace");
  const auto fails = [&](const std::vector<faults::FaultEvent>& events) {
    ++result.probes;
    return pred(scenario, faults::FaultTrace{events, trace.lossy});
  };
  bool changed = true;
  while (changed) {
    const std::size_t before = trace.events.size();
    trace.events = ddmin(std::move(trace.events), fails);
    changed = trace.events.size() < before;
    changed = compact_queries(scenario, trace, pred, result.probes) ||
              changed;
  }
  result.trace = std::move(trace);
  return result;
}

}  // namespace tcast::chaos
