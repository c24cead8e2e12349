#include "faults/fault_trace.hpp"

#include "common/parse.hpp"
#include "faults/faulty_channel.hpp"

namespace tcast::faults {
namespace {

const char* kind_code(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kFalseEmpty: return "fe";
    case FaultEvent::Kind::kCaptureDowngrade: return "dg";
    case FaultEvent::Kind::kSpuriousActivity: return "sp";
    case FaultEvent::Kind::kCrash: return "cr";
    case FaultEvent::Kind::kReboot: return "rb";
  }
  return "?";
}

std::optional<FaultEvent::Kind> parse_kind(std::string_view code) {
  if (code == "fe") return FaultEvent::Kind::kFalseEmpty;
  if (code == "dg") return FaultEvent::Kind::kCaptureDowngrade;
  if (code == "sp") return FaultEvent::Kind::kSpuriousActivity;
  if (code == "cr") return FaultEvent::Kind::kCrash;
  if (code == "rb") return FaultEvent::Kind::kReboot;
  return std::nullopt;
}

}  // namespace

FaultTrace FaultTrace::record(const FaultyChannel& channel) {
  FaultTrace trace;
  trace.events = channel.log().events();
  trace.lossy = channel.lossy();
  return trace;
}

std::optional<FaultTrace> FaultTrace::parse(std::string_view text) {
  const auto tokens = split(text, ',');
  if (tokens.empty() || tokens[0].substr(0, 6) != "lossy=")
    return std::nullopt;
  const auto lossy_val = tokens[0].substr(6);
  if (lossy_val != "0" && lossy_val != "1") return std::nullopt;
  FaultTrace trace;
  trace.lossy = lossy_val == "1";
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto parts = split(tokens[i], ':');
    if (parts.size() < 2 || parts.size() > 3) return std::nullopt;
    FaultEvent e;
    const auto kind = parse_kind(parts[1]);
    if (!parse_int(parts[0], e.at_query) || !kind) return std::nullopt;
    e.kind = *kind;
    const bool wants_node = *kind == FaultEvent::Kind::kCrash ||
                            *kind == FaultEvent::Kind::kReboot;
    const bool allows_node =
        wants_node || *kind == FaultEvent::Kind::kCaptureDowngrade;
    if (parts.size() == 3) {
      if (!allows_node) return std::nullopt;
      if (!parse_int(parts[2], e.node) || e.node == kNoNode)
        return std::nullopt;
    } else if (wants_node) {
      return std::nullopt;
    }
    trace.events.push_back(e);
  }
  return trace;
}

std::string FaultTrace::to_spec() const {
  std::string s = lossy ? "lossy=1" : "lossy=0";
  for (const auto& e : events) {
    s += "," + std::to_string(e.at_query) + ":" + kind_code(e.kind);
    if (e.node != kNoNode) s += ":" + std::to_string(e.node);
  }
  return s;
}

}  // namespace tcast::faults
