// tcastd — the threshold-query daemon.
//
//   tcastd --socket /tmp/tcastd.sock [--shards 4] [--queue-capacity 64]
//          [--batch-max 8] [--checked]
//
// Serves the wire protocol of src/service/protocol.hpp over a Unix domain
// socket. Populations are sharded by name; queries resolve to exact
// verdicts, honestly-tagged approximate answers (approx=require only), or
// typed errors — never fabricated verdicts, never silent drops.
// `tcast_client <socket> shutdown` stops it cleanly.
//
// A flag with a missing or malformed value, 0 or more than 64 shards (each
// shard runs a drain thread) or a zero batch prints "tcastd: bad value for
// <flag>", and an unknown flag "tcastd: unknown argument <flag>"; either
// exits 2 before the socket is bound.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/parse.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace {

tcast::service::UnixServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

/// Each shard starts a drain thread.
constexpr std::size_t kMaxShards = 64;

int bad_value(const char* flag) {
  std::fprintf(stderr, "tcastd: bad value for %s\n", flag);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::service;

  std::string socket_path = "/tmp/tcastd.sock";
  ServiceConfig cfg;
  ShardConfig& shard = cfg.shard;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The flag's value into `out`; false when it is missing or, for a
    // number, not a whole one.
    const auto text = [&](std::string& out) {
      const char* v = next();
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    const auto number = [&](std::size_t& out) {
      const char* v = next();
      return v != nullptr && tcast::parse_int(std::string_view(v), out);
    };
    bool ok = true;
    if (arg == "--socket") {
      ok = text(socket_path);
    } else if (arg == "--shards") {
      ok = number(cfg.shards);
    } else if (arg == "--queue-capacity") {
      ok = number(shard.queue_capacity);
    } else if (arg == "--batch-max") {
      ok = number(shard.batch_max);
    } else if (arg == "--checked") {
      shard.checked = true;
    } else {
      std::fprintf(stderr, "tcastd: unknown argument %s\n", arg.c_str());
      return 2;
    }
    if (!ok) return bad_value(arg.c_str());
  }
  if (cfg.shards == 0 || cfg.shards > kMaxShards) return bad_value("--shards");
  if (shard.batch_max == 0) return bad_value("--batch-max");

  TcastService service(cfg);
  UnixServer server(service, socket_path);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "tcastd: cannot listen on %s: %s\n",
                 socket_path.c_str(), error.c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("tcastd: listening on %s (%zu shards, queue %zu%s)\n",
              socket_path.c_str(), cfg.shards, shard.queue_capacity,
              shard.checked ? ", checked" : "");
  std::fflush(stdout);

  service.start_drain_threads();
  server.run();
  service.stop_drain_threads();
  service.drain_all();

  std::printf("tcastd: stopped\n");
  return 0;
}
