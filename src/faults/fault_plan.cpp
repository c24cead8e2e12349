#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

#include "common/parse.hpp"

namespace tcast::faults {
namespace {

/// A probability in [0, 1]; NaN fails the range test.
bool parse_prob(std::string_view text, double& out) {
  return parse_double(text, out) && out >= 0.0 && out <= 1.0;
}

std::string format_prob(double p) {
  // Shortest rendering that parses back to the identical double: %g (6
  // significant digits) covers every hand-written probability, but plans
  // built programmatically (fuzzers, campaign grids) carry full-precision
  // doubles — fall back to max_digits10 so spec() always round-trips.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", p);
  double back = 0.0;
  if (!parse_double(buf, back) || back != p)
    std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

}  // namespace

const char* to_string(FaultPlan::LossProcess p) {
  switch (p) {
    case FaultPlan::LossProcess::kNone: return "none";
    case FaultPlan::LossProcess::kIid: return "iid";
    case FaultPlan::LossProcess::kGilbertElliott: return "ge";
  }
  return "?";
}

bool FaultPlan::lossy() const {
  return marginal_loss() > 0.0 || capture_downgrade > 0.0 ||
         spurious_activity > 0.0 || crash_rate > 0.0;
}

double FaultPlan::marginal_loss() const {
  switch (process) {
    case LossProcess::kNone:
      return 0.0;
    case LossProcess::kIid:
      return loss;
    case LossProcess::kGilbertElliott: {
      const double denom = ge_enter_bad + ge_exit_bad;
      // A frozen chain (both transitions 0) stays in its start state (good).
      const double pi_bad = denom > 0.0 ? ge_enter_bad / denom : 0.0;
      return pi_bad * ge_loss_bad + (1.0 - pi_bad) * ge_loss_good;
    }
  }
  return 0.0;
}

double FaultPlan::burst_loss() const {
  switch (process) {
    case LossProcess::kNone:
      return 0.0;
    case LossProcess::kIid:
      return loss;
    case LossProcess::kGilbertElliott: {
      const double from_bad =
          (1.0 - ge_exit_bad) * ge_loss_bad + ge_exit_bad * ge_loss_good;
      const double from_good =
          ge_enter_bad * ge_loss_bad + (1.0 - ge_enter_bad) * ge_loss_good;
      return std::max(from_bad, from_good);
    }
  }
  return 0.0;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  for (const auto token : split(text, ',')) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const auto key = token.substr(0, eq);
    const auto value = token.substr(eq + 1);
    if (key == "iid") {
      if (!parse_prob(value, plan.loss)) return std::nullopt;
      plan.process = LossProcess::kIid;
    } else if (key == "ge") {
      const auto parts = split(value, ':');
      if (parts.size() != 4 || !parse_prob(parts[0], plan.ge_enter_bad) ||
          !parse_prob(parts[1], plan.ge_exit_bad) ||
          !parse_prob(parts[2], plan.ge_loss_good) ||
          !parse_prob(parts[3], plan.ge_loss_bad))
        return std::nullopt;
      plan.process = LossProcess::kGilbertElliott;
    } else if (key == "downgrade") {
      if (!parse_prob(value, plan.capture_downgrade)) return std::nullopt;
    } else if (key == "spurious") {
      if (!parse_prob(value, plan.spurious_activity)) return std::nullopt;
    } else if (key == "crash") {
      if (!parse_prob(value, plan.crash_rate)) return std::nullopt;
    } else if (key == "reboot") {
      if (!parse_int(value, plan.reboot_after)) return std::nullopt;
    } else if (key == "seed") {
      if (!parse_int(value, plan.seed)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return plan;
}

std::string FaultPlan::spec() const {
  std::string s;
  const auto append = [&s](const std::string& token) {
    if (!s.empty()) s += ',';
    s += token;
  };
  switch (process) {
    case LossProcess::kNone:
      break;
    case LossProcess::kIid:
      append("iid=" + format_prob(loss));
      break;
    case LossProcess::kGilbertElliott:
      append("ge=" + format_prob(ge_enter_bad) + ":" +
             format_prob(ge_exit_bad) + ":" + format_prob(ge_loss_good) +
             ":" + format_prob(ge_loss_bad));
      break;
  }
  if (capture_downgrade > 0.0)
    append("downgrade=" + format_prob(capture_downgrade));
  if (spurious_activity > 0.0)
    append("spurious=" + format_prob(spurious_activity));
  if (crash_rate > 0.0) append("crash=" + format_prob(crash_rate));
  if (reboot_after > 0) append("reboot=" + std::to_string(reboot_after));
  append("seed=" + std::to_string(seed));
  return s;
}

}  // namespace tcast::faults
