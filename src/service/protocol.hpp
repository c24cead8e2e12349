// The tcastd wire protocol (docs/SERVICE.md).
//
// Transport: length-prefixed frames over a byte stream (Unix domain
// socket) — a 4-byte little-endian payload length followed by that many
// bytes. Payloads are single-line text, `key=value` tokens separated by
// single spaces, first token the verb — trivially debuggable with a text
// CLI yet unambiguous to frame (no in-band delimiters to escape).
//
// Requests:
//   load pop=NAME n=128 x=32 seed=7 model=1+ tier=exact
//   query pop=NAME t=16 algo=2tbins deadline-ms=50 approx=never
//   stats | list | ping | drop pop=NAME | kill shard=1 | reboot shard=1 |
//   shutdown
//
// Responses (one per request, always):
//   status=ok decision=yes mode=exact queries=42 shard=1 latency-us=730
//   status=overloaded retry-after-ms=12
//   status=ok decision=no mode=approximate estimate=3.2 epsilon=0.35
//     confidence=0.9 queries=18 ...
//
// The codec is a total function both ways: encode(parse(x)) == normalize(x)
// and parse(encode(r)) == r, property-tested in tests/service.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "group/query_channel.hpp"
#include "service/clock.hpp"
#include "service/status.hpp"

namespace tcast::service {

/// Which resident backend a population simulates its radio world on.
enum class BackendTier : std::uint8_t { kExact, kPacket };

const char* to_string(BackendTier t);
std::optional<BackendTier> parse_backend_tier(std::string_view text);

/// Which path answers a query: an exact session or the approximate
/// counting census. The shard never picks for the client.
enum class ApproxMode : std::uint8_t {
  kNever,    ///< exact or a typed error, never an estimate (the default)
  kRequire,  ///< answer from the `nz-geom` census, tagged approximate
};

const char* to_string(ApproxMode m);
std::optional<ApproxMode> parse_approx_mode(std::string_view text);

enum class RequestKind : std::uint8_t {
  kLoad,
  kQuery,
  kDrop,
  kList,
  kStats,
  kPing,
  kKillShard,
  kRebootShard,
  kShutdown,
};

const char* to_string(RequestKind k);

struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string population;
  // kLoad:
  std::size_t n = 0;
  std::size_t x = 0;
  std::uint64_t seed = 1;
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  BackendTier tier = BackendTier::kExact;
  // kQuery:
  std::size_t t = 0;
  std::string algorithm = "2tbins";
  /// Relative per-query budget in milliseconds; 0 = no deadline. The server
  /// stamps the absolute deadline at admission.
  std::uint64_t deadline_ms = 0;
  ApproxMode approx = ApproxMode::kNever;
  // kKillShard / kRebootShard:
  std::size_t shard = 0;

  std::string encode() const;
  static std::optional<Request> parse(std::string_view line);

  bool operator==(const Request&) const = default;
};

/// How a verdict was produced. Responses are honest: an approximate answer
/// is tagged as such, with its claimed (1±epsilon, confidence) band
/// attached — the server never passes an estimate off as exact.
enum class AnswerMode : std::uint8_t { kExact, kApproximate };

const char* to_string(AnswerMode m);

struct Response {
  StatusCode status = StatusCode::kOk;
  bool decision = false;
  AnswerMode mode = AnswerMode::kExact;
  /// Approximate path only: the count estimate and its claimed band.
  double estimate = 0.0;
  double epsilon = 0.0;
  double confidence = 0.0;
  QueryCount queries = 0;
  std::size_t shard = 0;
  /// End-to-end service latency (admission to resolution), microseconds.
  TimeUs latency_us = 0;
  /// kOverloaded: suggested client backoff floor.
  std::uint64_t retry_after_ms = 0;
  /// Free-text detail for errors / stats / list payloads.
  std::string message;

  std::string encode() const;
  static std::optional<Response> parse(std::string_view line);

  bool ok() const { return status == StatusCode::kOk; }

  bool operator==(const Response&) const = default;
};

/// ---- Length-prefixed framing -------------------------------------------

/// Frames payloads larger than this are a protocol violation (a corrupt or
/// hostile peer); readers fail the connection instead of buffering.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Appends [u32 LE length][payload] to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Incremental deframer for a byte stream. Feed arbitrary chunks; complete
/// payloads come out in order. A frame longer than kMaxFrameBytes poisons
/// the reader (error() != nullopt) — the connection must be dropped.
class FrameReader {
 public:
  void feed(const char* data, std::size_t len);
  /// Next complete payload, FIFO; nullopt when none is buffered.
  std::optional<std::string> next();
  const std::optional<std::string>& error() const { return error_; }

 private:
  std::string buf_;
  std::deque<std::string> ready_;
  std::optional<std::string> error_;
};

}  // namespace tcast::service
