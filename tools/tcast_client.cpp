// tcast_client — text CLI for a running tcastd.
//
//   tcast_client --socket /tmp/tcastd.sock [--deadline-ms MS]
//                [--max-retries N] [--seed S] <request words...>
//   tcast_client --socket /tmp/tcastd.sock            # requests on stdin
//
// Requests are protocol lines (see docs/SERVICE.md), e.g.:
//   load pop=fleet n=256 x=40 seed=7
//   query pop=fleet t=32 deadline-ms=50 approx=require
//   stats | list | ping | shutdown
//
// Retryable responses (kOverloaded / kShardDown / kShuttingDown) are
// retried up to --max-retries times with jittered exponential backoff
// honoring the server's retry-after hints. Exit status: 0 on kOk, 1 on a
// typed error, 2 on usage/transport failure (a flag with a missing or
// malformed value prints "tcast_client: bad value for <flag>").
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/parse.hpp"
#include "service/server.hpp"

namespace {

int run_one(tcast::service::UnixClient& client,
            const tcast::service::BackoffPolicy& policy,
            tcast::RngStream& rng, std::uint64_t default_deadline_ms,
            const std::string& line) {
  using namespace tcast::service;
  auto req = Request::parse(line);
  if (!req) {
    std::fprintf(stderr, "unparseable request: %s\n", line.c_str());
    return 2;
  }
  // --deadline-ms is a default: an explicit deadline-ms= token wins.
  if (req->kind == RequestKind::kQuery && req->deadline_ms == 0)
    req->deadline_ms = default_deadline_ms;
  std::size_t attempts = 0;
  const auto resp = client.call_with_retries(*req, policy, rng, &attempts);
  if (!resp) {
    std::fprintf(stderr, "transport failure talking to tcastd\n");
    return 2;
  }
  std::printf("%s%s\n", resp->encode().c_str(),
              attempts > 1
                  ? (" attempts=" + std::to_string(attempts)).c_str()
                  : "");
  if (!resp->message.empty() && resp->message.find('\n') != std::string::npos)
    std::printf("%s", resp->message.c_str());
  return resp->ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::service;

  std::string socket_path = "/tmp/tcastd.sock";
  BackoffPolicy policy;
  policy.max_retries = 0;
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 0;
  std::string request_line;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The flag's whole number into `out`; false when missing or malformed.
    const auto number = [&](auto& out) {
      const char* v = next();
      return v != nullptr && tcast::parse_int(std::string_view(v), out);
    };
    bool ok = true;
    if (arg == "--socket") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) socket_path = v;
    } else if (arg == "--max-retries") {
      ok = number(policy.max_retries);
    } else if (arg == "--deadline-ms") {
      ok = number(deadline_ms);
    } else if (arg == "--seed") {
      ok = number(seed);
    } else {
      if (!request_line.empty()) request_line += ' ';
      request_line += arg;
    }
    if (!ok) {
      std::fprintf(stderr, "tcast_client: bad value for %s\n", arg.c_str());
      return 2;
    }
  }

  UnixClient client(socket_path);
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socket_path.c_str(),
                 error.c_str());
    return 2;
  }
  tcast::RngStream rng(seed, 0x9e11);

  if (!request_line.empty())
    return run_one(client, policy, rng, deadline_ms, request_line);

  int worst = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    worst = std::max(worst, run_one(client, policy, rng, deadline_ms, line));
  }
  return worst;
}
