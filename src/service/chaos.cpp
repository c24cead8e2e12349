#include "service/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "common/ddmin.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "conformance/count_monitor.hpp"

namespace tcast::service {
namespace {

const char* kind_name(ServiceOp::Kind k) {
  switch (k) {
    case ServiceOp::Kind::kLoad:
      return "load";
    case ServiceOp::Kind::kQuery:
      return "query";
    case ServiceOp::Kind::kKill:
      return "kill";
    case ServiceOp::Kind::kReboot:
      return "reboot";
    case ServiceOp::Kind::kAdvance:
      return "advance";
    case ServiceOp::Kind::kPump:
      return "pump";
  }
  return "pump";
}

}  // namespace

std::string ServiceOp::encode() const {
  std::ostringstream os;
  os << kind_name(kind);
  switch (kind) {
    case Kind::kLoad:
      os << " pop=" << pop << " n=" << n << " x=" << x << " seed=" << seed;
      break;
    case Kind::kQuery:
      os << " pop=" << pop << " t=" << t << " deadline-ms=" << deadline_ms
         << " approx=" << to_string(approx);
      break;
    case Kind::kKill:
    case Kind::kReboot:
      os << " shard=" << shard;
      break;
    case Kind::kAdvance:
      os << " us=" << advance_us;
      break;
    case Kind::kPump:
      break;
  }
  return os.str();
}

std::optional<ServiceOp> ServiceOp::parse(std::string_view line) {
  std::istringstream is{std::string(line)};
  std::string verb;
  if (!(is >> verb)) return std::nullopt;
  ServiceOp op;
  if (verb == "load") {
    op.kind = Kind::kLoad;
  } else if (verb == "query") {
    op.kind = Kind::kQuery;
  } else if (verb == "kill") {
    op.kind = Kind::kKill;
  } else if (verb == "reboot") {
    op.kind = Kind::kReboot;
  } else if (verb == "advance") {
    op.kind = Kind::kAdvance;
  } else if (verb == "pump") {
    op.kind = Kind::kPump;
  } else {
    return std::nullopt;
  }
  std::string word;
  while (is >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string_view key = std::string_view(word).substr(0, eq);
    const std::string_view value = std::string_view(word).substr(eq + 1);
    bool ok = true;
    if (key == "pop") {
      op.pop = value;
    } else if (key == "n") {
      ok = parse_int(value, op.n);
    } else if (key == "x") {
      ok = parse_int(value, op.x);
    } else if (key == "seed") {
      ok = parse_int(value, op.seed);
    } else if (key == "t") {
      ok = parse_int(value, op.t);
    } else if (key == "deadline-ms") {
      ok = parse_int(value, op.deadline_ms);
    } else if (key == "approx") {
      const auto mode = parse_approx_mode(value);
      ok = mode.has_value();
      if (ok) op.approx = *mode;
    } else if (key == "shard") {
      ok = parse_int(value, op.shard);
    } else if (key == "us") {
      ok = parse_int(value, op.advance_us);
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  return op;
}

std::string encode_trace(std::span<const ServiceOp> ops) {
  std::string out;
  for (const auto& op : ops) {
    out += op.encode();
    out += '\n';
  }
  return out;
}

std::optional<std::vector<ServiceOp>> parse_trace(std::string_view text) {
  std::vector<ServiceOp> ops;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(start, end - start);
    if (!line.empty()) {
      auto op = ServiceOp::parse(line);
      if (!op) return std::nullopt;
      ops.push_back(std::move(*op));
    }
    start = end + 1;
  }
  return ops;
}

std::vector<ServiceOp> generate_service_ops(const ServiceCampaignConfig& cfg) {
  RngStream rng(cfg.seed, 0xc4a5);
  std::vector<ServiceOp> ops;
  ops.reserve(cfg.ops + cfg.populations + 4 * cfg.shards);

  std::vector<std::pair<std::size_t, std::size_t>> pops;  // (n, x)
  for (std::size_t p = 0; p < cfg.populations; ++p) {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kLoad;
    op.pop = "p";
    op.pop += std::to_string(p);
    op.n = 16 + static_cast<std::size_t>(
                    rng.uniform_below(std::max<std::size_t>(cfg.max_n, 17) - 16));
    op.x = static_cast<std::size_t>(rng.uniform_below(op.n + 1));
    op.seed = rng.bits() | 1;
    pops.emplace_back(op.n, op.x);
    ops.push_back(std::move(op));
  }

  for (std::size_t i = 0; i < cfg.ops; ++i) {
    const auto roll = rng.uniform_below(100);
    if (roll < 55) {
      // Query volley: bursts are what overflow a bounded queue.
      const auto volley = 1 + rng.uniform_below(6);
      for (std::uint64_t v = 0; v < volley; ++v) {
        const auto p = static_cast<std::size_t>(
            rng.uniform_below(cfg.populations));
        const auto [n, x] = pops[p];
        ServiceOp op;
        op.kind = ServiceOp::Kind::kQuery;
        op.pop = "p";
        op.pop += std::to_string(p);
        // Skew thresholds toward the decision boundary x (the hard cases).
        if (rng.uniform_below(2) == 0 && x > 0) {
          const auto jitter = rng.uniform_below(5);
          const auto lo = x > 2 ? x - 2 : 1;
          op.t = std::min(n, lo + static_cast<std::size_t>(jitter));
        } else {
          op.t = 1 + static_cast<std::size_t>(rng.uniform_below(n));
        }
        const auto d = rng.uniform_below(10);
        if (d < 3) {
          op.deadline_ms = 0;  // no deadline
        } else if (d < 7) {
          op.deadline_ms = 1 + rng.uniform_below(5);
        } else {
          op.deadline_ms = 20 + rng.uniform_below(80);
        }
        const auto a = rng.uniform_below(10);
        op.approx = a < 7   ? ApproxMode::kAllow
                    : a < 9 ? ApproxMode::kNever
                            : ApproxMode::kRequire;
        ops.push_back(std::move(op));
      }
    } else if (roll < 70) {
      ServiceOp op;
      op.kind = ServiceOp::Kind::kPump;
      ops.push_back(std::move(op));
    } else if (roll < 80) {
      ServiceOp op;
      op.kind = ServiceOp::Kind::kAdvance;
      op.advance_us = 500 + rng.uniform_below(4500);
      ops.push_back(std::move(op));
    } else if (roll < 88) {
      ServiceOp op;
      op.kind = ServiceOp::Kind::kKill;
      op.shard = static_cast<std::size_t>(rng.uniform_below(cfg.shards));
      ops.push_back(std::move(op));
    } else if (roll < 96) {
      ServiceOp op;
      op.kind = ServiceOp::Kind::kReboot;
      op.shard = static_cast<std::size_t>(rng.uniform_below(cfg.shards));
      ops.push_back(std::move(op));
    } else {
      // Reload with fresh ground truth mid-campaign.
      const auto p =
          static_cast<std::size_t>(rng.uniform_below(cfg.populations));
      ServiceOp op;
      op.kind = ServiceOp::Kind::kLoad;
      op.pop = "p";
      op.pop += std::to_string(p);
      op.n = pops[p].first;
      op.x = static_cast<std::size_t>(rng.uniform_below(op.n + 1));
      op.seed = rng.bits() | 1;
      pops[p].second = op.x;
      ops.push_back(std::move(op));
    }
  }

  // Epilogue: revive every shard so queued work can resolve as verdicts,
  // not only as flushes (the run itself drains whatever remains).
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    ServiceOp op;
    op.kind = ServiceOp::Kind::kReboot;
    op.shard = s;
    ops.push_back(std::move(op));
  }
  return ops;
}

namespace {

/// What the campaign expected of one submitted request at submission time.
struct Expectation {
  ServiceOp::Kind kind = ServiceOp::Kind::kQuery;
  std::size_t n = 0;
  std::size_t x = 0;
  std::size_t t = 0;
};

struct Observation {
  Expectation want;
  Response got;
};

}  // namespace

std::string ServiceCampaignReport::summary() const {
  std::ostringstream os;
  os << "submitted=" << submitted << " resolved=" << resolved
     << " hangs=" << hangs << " ok_exact=" << ok_exact
     << " ok_approx=" << ok_approx << " wrong_exact=" << wrong_exact
     << " untagged_approx=" << untagged_approx
     << " approx_outside_band=" << approx_outside_band
     << " approx_floor=" << approx_floor << " typed_errors=" << typed_errors
     << " conformance_violations=" << conformance_violations
     << " failures=" << failures.size();
  for (const auto& f : failures) os << "\n  FAIL: " << f;
  return os.str();
}

ServiceCampaignReport run_service_ops(std::span<const ServiceOp> ops,
                                      const ServiceCampaignConfig& cfg) {
  ManualClock clock;
  ThreadPool pool(2);
  ServiceConfig scfg;
  scfg.shards = cfg.shards;
  scfg.queue_capacity = cfg.queue_capacity;
  scfg.degrade_enter = cfg.degrade_enter;
  scfg.degrade_exit = cfg.degrade_exit;
  scfg.batch_max = cfg.batch_max;
  scfg.degrade_estimator = cfg.degrade_estimator;
  scfg.checked = cfg.checked;
  scfg.clock = &clock;
  scfg.pool = &pool;

  ServiceCampaignReport report;
  std::vector<Observation> observations;
  std::mutex obs_mu;

  {
    TcastService service(std::move(scfg));
    // Ground truth as the shard saw it when each request *executed*. A
    // reload submitted mid-campaign can be rejected at admission (queue
    // full, shard down) and never take effect, so the map advances only in
    // a load's kOk callback — and queries are judged against the map at
    // their own callback, not at submission: loads and queries to one
    // population share a FIFO shard queue, so callbacks fire in execution
    // order and the map at a query's callback is exactly the truth its
    // engine run saw. Guarded by obs_mu (shards drain in parallel).
    std::unordered_map<std::string, std::pair<std::size_t, std::size_t>>
        truth;

    for (const auto& op : ops) {
      switch (op.kind) {
        case ServiceOp::Kind::kLoad: {
          Request req;
          req.kind = RequestKind::kLoad;
          req.population = op.pop;
          req.n = op.n;
          req.x = op.x;
          req.seed = op.seed;
          ++report.submitted;
          service.submit(
              std::move(req),
              [&, pop = op.pop, n = op.n, x = op.x](const Response& r) {
                std::lock_guard<std::mutex> lock(obs_mu);
                if (r.ok()) truth[pop] = {n, x};
                observations.push_back(Observation{
                    Expectation{.kind = ServiceOp::Kind::kLoad}, r});
              });
          break;
        }
        case ServiceOp::Kind::kQuery: {
          Request req;
          req.kind = RequestKind::kQuery;
          req.population = op.pop;
          req.t = op.t;
          req.algorithm = cfg.algorithm;
          req.deadline_ms = op.deadline_ms;
          req.approx = op.approx;
          ++report.submitted;
          service.submit(
              std::move(req), [&, pop = op.pop, t = op.t](const Response& r) {
                std::lock_guard<std::mutex> lock(obs_mu);
                Expectation want;
                want.kind = ServiceOp::Kind::kQuery;
                if (const auto it = truth.find(pop); it != truth.end()) {
                  want.n = it->second.first;
                  want.x = it->second.second;
                }
                want.t = t;
                observations.push_back(Observation{want, r});
              });
          break;
        }
        case ServiceOp::Kind::kKill:
          if (op.shard < service.shard_count()) service.shard(op.shard).kill();
          break;
        case ServiceOp::Kind::kReboot:
          if (op.shard < service.shard_count())
            service.shard(op.shard).reboot();
          break;
        case ServiceOp::Kind::kAdvance:
          clock.advance_us(op.advance_us);
          break;
        case ServiceOp::Kind::kPump:
          service.pump();
          break;
      }
    }

    // Liveness: nothing may be left pending once the queues drain.
    service.drain_all();
    for (const auto& s : service.stats())
      report.conformance_violations += s.conformance_violations;
  }

  report.resolved = observations.size();
  report.hangs = report.submitted > report.resolved
                     ? report.submitted - report.resolved
                     : 0;
  if (report.hangs > 0) {
    report.failures.push_back(std::to_string(report.hangs) +
                              " requests never resolved (hang/silent drop)");
  }
  if (report.conformance_violations > 0) {
    report.failures.push_back(
        std::to_string(report.conformance_violations) +
        " conformance violations flagged by CheckedChannel");
  }

  std::size_t approx_trials = 0;
  std::size_t approx_within = 0;
  for (const auto& obs : observations) {
    const auto& r = obs.got;
    if (obs.want.kind != ServiceOp::Kind::kQuery) continue;
    if (r.status != StatusCode::kOk) {
      ++report.typed_errors;
      continue;
    }
    const bool truth_decision = obs.want.x >= obs.want.t;
    if (r.mode == AnswerMode::kExact) {
      ++report.ok_exact;
      if (r.decision != truth_decision) {
        ++report.wrong_exact;
        report.failures.push_back(
            "exact verdict " + std::string(r.decision ? "yes" : "no") +
            " contradicts ground truth (x=" + std::to_string(obs.want.x) +
            ", t=" + std::to_string(obs.want.t) + ")");
      }
    } else {
      ++report.ok_approx;
      if (r.confidence <= 0.0 || r.epsilon <= 0.0) {
        ++report.untagged_approx;
        report.failures.push_back(
            "approximate answer missing its (epsilon, confidence) tag");
      }
      ++approx_trials;
      // Honesty is judged against the band the answer itself claims; the
      // campaign's cfg.epsilon only backstops an answer that claimed none.
      const double band = r.epsilon > 0.0 ? r.epsilon : cfg.epsilon;
      const double x = static_cast<double>(obs.want.x);
      const bool within = obs.want.x == 0
                              ? r.estimate == 0.0
                              : std::abs(r.estimate - x) <= band * x;
      if (within) ++approx_within;
    }
  }

  if (approx_trials > 0) {
    report.approx_outside_band = approx_trials - approx_within;
    report.approx_floor =
        conformance::acceptance_floor(cfg.delta, approx_trials);
    const double within_fraction = static_cast<double>(approx_within) /
                                   static_cast<double>(approx_trials);
    if (within_fraction < report.approx_floor) {
      std::ostringstream os;
      os << "approximate answers within (1±" << cfg.epsilon << ") band "
         << approx_within << "/" << approx_trials << " = " << within_fraction
         << " below acceptance floor " << report.approx_floor
         << " for delta=" << cfg.delta;
      report.failures.push_back(os.str());
    }
  }
  return report;
}

std::vector<ServiceOp> shrink_service_ops(
    std::vector<ServiceOp> ops,
    const std::function<bool(std::span<const ServiceOp>)>& failing) {
  if (ops.empty() || !failing(ops)) return ops;
  return ddmin(std::move(ops), failing);
}

ServiceCampaignResult run_service_campaign(const ServiceCampaignConfig& cfg) {
  ServiceCampaignResult result;
  const auto ops = generate_service_ops(cfg);
  result.report = run_service_ops(ops, cfg);
  if (!result.report.ok()) {
    result.minimized = shrink_service_ops(
        ops, [&cfg](std::span<const ServiceOp> candidate) {
          return !run_service_ops(candidate, cfg).ok();
        });
  }
  return result;
}

}  // namespace tcast::service
