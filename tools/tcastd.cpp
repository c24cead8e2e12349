// tcastd — the threshold-query daemon.
//
//   tcastd --socket /tmp/tcastd.sock [--shards 4] [--queue-capacity 64]
//          [--degrade-enter 32] [--degrade-exit 8] [--batch-max 8]
//          [--estimator nz-geom] [--checked]
//
// Serves the wire protocol of src/service/protocol.hpp over a Unix domain
// socket. Populations are sharded by name; queries resolve to exact
// verdicts, honestly-tagged approximate answers (under overload
// degradation), or typed errors — never fabricated verdicts, never silent
// drops. `tcast_client <socket> shutdown` stops it cleanly.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "service/server.hpp"
#include "service/service.hpp"

namespace {

tcast::service::UnixServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::service;

  std::string socket_path = "/tmp/tcastd.sock";
  ServiceConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      if (const char* v = next()) socket_path = v;
    } else if (arg == "--shards") {
      if (const char* v = next()) cfg.shards = std::stoul(v);
    } else if (arg == "--queue-capacity") {
      if (const char* v = next()) cfg.queue_capacity = std::stoul(v);
    } else if (arg == "--degrade-enter") {
      if (const char* v = next()) cfg.degrade_enter = std::stoul(v);
    } else if (arg == "--degrade-exit") {
      if (const char* v = next()) cfg.degrade_exit = std::stoul(v);
    } else if (arg == "--batch-max") {
      if (const char* v = next()) cfg.batch_max = std::stoul(v);
    } else if (arg == "--estimator") {
      if (const char* v = next()) cfg.degrade_estimator = v;
    } else if (arg == "--checked") {
      cfg.checked = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

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

  std::printf("tcastd: listening on %s (%zu shards, queue %zu, degrade %zu/%zu%s)\n",
              socket_path.c_str(), cfg.shards, cfg.queue_capacity,
              cfg.degrade_enter, cfg.degrade_exit,
              cfg.checked ? ", checked" : "");
  std::fflush(stdout);

  service.start_drain_threads();
  server.run();
  service.stop_drain_threads();
  service.drain_all();

  std::printf("tcastd: stopped\n");
  return 0;
}
