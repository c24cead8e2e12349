// Service-level chaos: scripted fault campaigns against a TcastService.
//
// The PR 5 chaos layer attacks one algorithm run through a faulty channel;
// this layer attacks the *daemon*: shards are killed and rebooted while
// queries are queued and in flight, deadlines expire inside rounds, the
// admission queue overflows — and the conformance monitors assert the
// service contract end to end:
//
//   * liveness  — every submitted request resolves (no hangs, no silent
//                 drops), including requests queued on a killed shard;
//   * honesty   — every kOk exact verdict matches ground truth (the
//                 campaign generated the populations, so it knows x);
//                 every approximate answer is tagged, and the fraction of
//                 estimates outside their claimed (1±ε) band stays under
//                 the statistical acceptance floor for the claimed δ;
//   * typing    — everything else is a typed error (kOverloaded /
//                 kDeadlineExceeded / kShardDown / ...), never a verdict.
//
// A campaign is a pure function of its seed: ops are pre-generated, time
// is a ManualClock the ops advance, so a failing seed replays exactly.
// Failing op lists shrink with the same ddmin (common/ddmin.hpp) as
// chaos::shrink; ops serialize to a line-based text trace so CI can upload
// minimized reproducers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace tcast::service {

struct ServiceOp {
  enum class Kind : std::uint8_t {
    kLoad,     ///< (re)load population `pop` with n nodes, x positive
    kQuery,    ///< threshold query against `pop`
    kKill,     ///< kill shard `shard`
    kReboot,   ///< reboot shard `shard`
    kAdvance,  ///< advance the manual clock by `advance_us`
    kPump,     ///< drain every shard one batch
  };

  Kind kind = Kind::kPump;
  std::string pop;
  std::size_t n = 0;
  std::size_t x = 0;
  std::uint64_t seed = 1;
  std::size_t t = 0;
  std::uint64_t deadline_ms = 0;
  ApproxMode approx = ApproxMode::kAllow;
  std::size_t shard = 0;
  TimeUs advance_us = 0;

  std::string encode() const;
  static std::optional<ServiceOp> parse(std::string_view line);

  bool operator==(const ServiceOp&) const = default;
};

/// One line per op; round-trips with parse_trace.
std::string encode_trace(std::span<const ServiceOp> ops);
std::optional<std::vector<ServiceOp>> parse_trace(std::string_view text);

struct ServiceCampaignConfig {
  std::uint64_t seed = 1;
  std::size_t ops = 400;
  std::size_t populations = 4;
  std::size_t max_n = 128;
  std::size_t shards = 2;
  std::size_t queue_capacity = 8;
  std::size_t degrade_enter = 6;
  std::size_t degrade_exit = 2;
  std::size_t batch_max = 4;
  bool checked = true;
  std::string algorithm = "2tbins";
  std::string degrade_estimator = "nz-geom";
  /// Default (ε, δ) claim of the degrade estimator, for the honesty check.
  double epsilon = 0.35;
  double delta = 0.1;
};

/// Deterministic op script for `cfg.seed` — kill/reboot, bursty query
/// volleys (to overflow the bounded queues), deadline'd queries, clock
/// advances and pumps, interleaved.
std::vector<ServiceOp> generate_service_ops(const ServiceCampaignConfig& cfg);

struct ServiceCampaignReport {
  std::size_t submitted = 0;
  std::size_t resolved = 0;
  std::size_t hangs = 0;  ///< submitted - resolved after the final drain
  std::size_t ok_exact = 0;
  std::size_t ok_approx = 0;
  std::size_t wrong_exact = 0;  ///< kOk exact verdicts contradicting truth
  std::size_t untagged_approx = 0;  ///< approx path answers posing as exact
  std::size_t approx_outside_band = 0;
  double approx_floor = 0.0;  ///< allowed out-of-band count at claimed δ
  std::size_t typed_errors = 0;
  std::size_t conformance_violations = 0;
  std::vector<std::string> failures;  ///< human-readable contract breaches

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Replays `ops` against a fresh service under a ManualClock and checks
/// the contract. Pure function of (ops, cfg).
ServiceCampaignReport run_service_ops(std::span<const ServiceOp> ops,
                                      const ServiceCampaignConfig& cfg);

/// ddmin over op lists: smallest subsequence (locally minimal) for which
/// `failing` still returns true; an input that does not fail comes back
/// unchanged. `failing(ops)` must be deterministic.
std::vector<ServiceOp> shrink_service_ops(
    std::vector<ServiceOp> ops,
    const std::function<bool(std::span<const ServiceOp>)>& failing);

/// generate → run → (on failure) shrink; the nightly CI entry point.
struct ServiceCampaignResult {
  ServiceCampaignReport report;
  std::vector<ServiceOp> minimized;  ///< empty when the campaign passed
};
ServiceCampaignResult run_service_campaign(const ServiceCampaignConfig& cfg);

}  // namespace tcast::service
