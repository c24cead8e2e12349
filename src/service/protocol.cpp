#include "service/protocol.hpp"

#include <sstream>
#include <vector>

#include "common/parse.hpp"

namespace tcast::service {
namespace {

// ---- token helpers -------------------------------------------------------

struct Token {
  std::string_view key;
  std::string_view value;
};

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

std::optional<Token> split_kv(std::string_view word) {
  const auto eq = word.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return Token{word.substr(0, eq), word.substr(eq + 1)};
}

bool parse_bool(std::string_view text, bool& out) {
  if (text == "yes" || text == "1" || text == "true") {
    out = true;
    return true;
  }
  if (text == "no" || text == "0" || text == "false") {
    out = false;
    return true;
  }
  return false;
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Population names and free-text messages travel as single tokens; spaces
/// would split them, so messages escape space as '~' (names reject it).
std::string escape_message(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(c == ' ' ? '~' : c);
  return out;
}

std::string unescape_message(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(c == '~' ? ' ' : c);
  return out;
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// ---- enum codecs ---------------------------------------------------------

const char* to_string(BackendTier t) {
  switch (t) {
    case BackendTier::kExact:
      return "exact";
    case BackendTier::kPacket:
      return "packet";
  }
  return "exact";
}

std::optional<BackendTier> parse_backend_tier(std::string_view text) {
  if (text == "exact") return BackendTier::kExact;
  if (text == "packet") return BackendTier::kPacket;
  return std::nullopt;
}

const char* to_string(ApproxMode m) {
  switch (m) {
    case ApproxMode::kNever:
      return "never";
    case ApproxMode::kRequire:
      return "require";
  }
  return "never";
}

std::optional<ApproxMode> parse_approx_mode(std::string_view text) {
  if (text == "never") return ApproxMode::kNever;
  if (text == "require") return ApproxMode::kRequire;
  return std::nullopt;
}

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::kLoad:
      return "load";
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kDrop:
      return "drop";
    case RequestKind::kList:
      return "list";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kKillShard:
      return "kill";
    case RequestKind::kRebootShard:
      return "reboot";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "ping";
}

const char* to_string(AnswerMode m) {
  switch (m) {
    case AnswerMode::kExact:
      return "exact";
    case AnswerMode::kApproximate:
      return "approximate";
  }
  return "exact";
}

// ---- Request -------------------------------------------------------------

std::string Request::encode() const {
  std::ostringstream os;
  os << to_string(kind);
  switch (kind) {
    case RequestKind::kLoad:
      os << " pop=" << population << " n=" << n << " x=" << x
         << " seed=" << seed << " model="
         << (model == group::CollisionModel::kTwoPlus ? "2+" : "1+")
         << " tier=" << to_string(tier);
      break;
    case RequestKind::kQuery:
      os << " pop=" << population << " t=" << t << " algo=" << algorithm
         << " deadline-ms=" << deadline_ms << " approx=" << to_string(approx);
      break;
    case RequestKind::kDrop:
      os << " pop=" << population;
      break;
    case RequestKind::kKillShard:
    case RequestKind::kRebootShard:
      os << " shard=" << shard;
      break;
    case RequestKind::kList:
    case RequestKind::kStats:
    case RequestKind::kPing:
    case RequestKind::kShutdown:
      break;
  }
  return os.str();
}

std::optional<Request> Request::parse(std::string_view line) {
  const auto words = split_ws(line);
  if (words.empty()) return std::nullopt;

  Request req;
  const auto verb = words[0];
  if (verb == "load") {
    req.kind = RequestKind::kLoad;
  } else if (verb == "query") {
    req.kind = RequestKind::kQuery;
  } else if (verb == "drop") {
    req.kind = RequestKind::kDrop;
  } else if (verb == "list") {
    req.kind = RequestKind::kList;
  } else if (verb == "stats") {
    req.kind = RequestKind::kStats;
  } else if (verb == "ping") {
    req.kind = RequestKind::kPing;
  } else if (verb == "kill") {
    req.kind = RequestKind::kKillShard;
  } else if (verb == "reboot") {
    req.kind = RequestKind::kRebootShard;
  } else if (verb == "shutdown") {
    req.kind = RequestKind::kShutdown;
  } else {
    return std::nullopt;
  }

  for (std::size_t i = 1; i < words.size(); ++i) {
    const auto kv = split_kv(words[i]);
    if (!kv) return std::nullopt;
    const auto key = kv->key;
    const auto value = kv->value;
    bool ok = true;
    if (key == "pop") {
      ok = valid_name(value);
      req.population = std::string(value);
    } else if (key == "n") {
      ok = parse_int(value, req.n);
    } else if (key == "x") {
      ok = parse_int(value, req.x);
    } else if (key == "seed") {
      ok = parse_int(value, req.seed);
    } else if (key == "model") {
      if (value == "1+") {
        req.model = group::CollisionModel::kOnePlus;
      } else if (value == "2+") {
        req.model = group::CollisionModel::kTwoPlus;
      } else {
        ok = false;
      }
    } else if (key == "tier") {
      const auto tier = parse_backend_tier(value);
      ok = tier.has_value();
      if (tier) req.tier = *tier;
    } else if (key == "t") {
      ok = parse_int(value, req.t);
    } else if (key == "algo") {
      ok = valid_name(value);
      req.algorithm = std::string(value);
    } else if (key == "deadline-ms") {
      ok = parse_int(value, req.deadline_ms);
    } else if (key == "approx") {
      const auto mode = parse_approx_mode(value);
      ok = mode.has_value();
      if (mode) req.approx = *mode;
    } else if (key == "shard") {
      ok = parse_int(value, req.shard);
    } else {
      ok = false;  // unknown keys are rejected, not ignored: typos surface
    }
    if (!ok) return std::nullopt;
  }

  const bool needs_pop = req.kind == RequestKind::kLoad ||
                         req.kind == RequestKind::kQuery ||
                         req.kind == RequestKind::kDrop;
  if (needs_pop && req.population.empty()) return std::nullopt;
  return req;
}

// ---- Response ------------------------------------------------------------

std::string Response::encode() const {
  std::ostringstream os;
  os << "status=" << to_string(status);
  if (status == StatusCode::kOk) {
    os << " decision=" << (decision ? "yes" : "no")
       << " mode=" << to_string(mode);
    if (mode == AnswerMode::kApproximate) {
      os << " estimate=" << format_double(estimate)
         << " epsilon=" << format_double(epsilon)
         << " confidence=" << format_double(confidence);
    }
  }
  os << " queries=" << queries << " shard=" << shard
     << " latency-us=" << latency_us;
  if (retry_after_ms != 0) os << " retry-after-ms=" << retry_after_ms;
  if (!message.empty()) os << " msg=" << escape_message(message);
  return os.str();
}

std::optional<Response> Response::parse(std::string_view line) {
  Response resp;
  bool saw_status = false;
  for (const auto word : split_ws(line)) {
    const auto kv = split_kv(word);
    if (!kv) return std::nullopt;
    const auto key = kv->key;
    const auto value = kv->value;
    bool ok = true;
    if (key == "status") {
      const auto status = parse_status(value);
      ok = status.has_value();
      if (status) resp.status = *status;
      saw_status = true;
    } else if (key == "decision") {
      ok = parse_bool(value, resp.decision);
    } else if (key == "mode") {
      if (value == "exact") {
        resp.mode = AnswerMode::kExact;
      } else if (value == "approximate") {
        resp.mode = AnswerMode::kApproximate;
      } else {
        ok = false;
      }
    } else if (key == "estimate") {
      ok = parse_double(value, resp.estimate);
    } else if (key == "epsilon") {
      ok = parse_double(value, resp.epsilon);
    } else if (key == "confidence") {
      ok = parse_double(value, resp.confidence);
    } else if (key == "queries") {
      ok = parse_int(value, resp.queries);
    } else if (key == "shard") {
      ok = parse_int(value, resp.shard);
    } else if (key == "latency-us") {
      ok = parse_int(value, resp.latency_us);
    } else if (key == "retry-after-ms") {
      ok = parse_int(value, resp.retry_after_ms);
    } else if (key == "msg") {
      resp.message = unescape_message(value);
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  if (!saw_status) return std::nullopt;
  return resp;
}

// ---- framing -------------------------------------------------------------

void append_frame(std::string& out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  char header[4];
  header[0] = static_cast<char>(len & 0xff);
  header[1] = static_cast<char>((len >> 8) & 0xff);
  header[2] = static_cast<char>((len >> 16) & 0xff);
  header[3] = static_cast<char>((len >> 24) & 0xff);
  out.append(header, 4);
  out.append(payload.data(), payload.size());
}

void FrameReader::feed(const char* data, std::size_t len) {
  if (error_) return;
  buf_.append(data, len);
  while (buf_.size() >= 4) {
    const auto b = [&](std::size_t i) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
    };
    const std::uint32_t frame_len =
        b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
    if (frame_len > kMaxFrameBytes) {
      error_ = "frame length " + std::to_string(frame_len) +
               " exceeds limit " + std::to_string(kMaxFrameBytes);
      buf_.clear();
      return;
    }
    if (buf_.size() < 4 + static_cast<std::size_t>(frame_len)) break;
    ready_.emplace_back(buf_.substr(4, frame_len));
    buf_.erase(0, 4 + static_cast<std::size_t>(frame_len));
  }
}

std::optional<std::string> FrameReader::next() {
  if (ready_.empty()) return std::nullopt;
  std::string out = std::move(ready_.front());
  ready_.pop_front();
  return out;
}

}  // namespace tcast::service
