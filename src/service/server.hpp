// tcastd's transport: a Unix-domain stream socket speaking the
// length-prefixed protocol of protocol.hpp.
//
// One poll()-driven event-loop thread owns every fd (accept + reads);
// query execution never blocks it — requests are handed to TcastService
// and the responses come back on the shards' drain threads. Because a
// connection may pipeline requests and the service resolves them out of
// order (different shards, shed deadlines), each connection sequences its
// requests at read time and buffers completed responses until they can be
// written back in request order — the protocol stays correlation-id-free.
//
// UnixClient is the matching blocking client: one call() per request,
// with optional retry-with-backoff honoring server retry-after hints
// (used by tools/tcast_client, the CLI --max-retries path, and the load
// rigs' closed-loop workers).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/backoff.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace tcast::service {

class UnixServer {
 public:
  /// `service` must outlive the server. `socket_path` is unlinked on bind
  /// and on destruction.
  UnixServer(TcastService& service, std::string socket_path);
  ~UnixServer();

  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Binds and listens; false (with *error filled) on failure.
  bool start(std::string* error);

  /// Blocking accept/read loop; returns once stop() is called or the
  /// service enters shutdown (after flushing responses).
  void run();

  /// Signals run() to exit; safe from any thread / signal context flag.
  void stop() { stop_.store(true, std::memory_order_release); }

  const std::string& socket_path() const { return path_; }

 private:
  struct Connection {
    int fd = -1;  ///< closed once, by close_connection(); -1 after
    FrameReader reader;
    std::mutex mu;  ///< fd, and the write ordering state below
    std::uint64_t next_submit = 0;
    std::uint64_t next_send = 0;
    std::map<std::uint64_t, std::string> out_of_order;
    bool writable = true;  ///< false after a failed write or a close
  };

  void accept_one();
  /// Reads available bytes; parses and submits complete frames. Returns
  /// false when the connection is done (EOF / error / protocol violation).
  bool service_readable(const std::shared_ptr<Connection>& conn);
  static void enqueue_response(const std::shared_ptr<Connection>& conn,
                               std::uint64_t seq, const Response& resp);
  static void close_connection(Connection& conn);

  TcastService* service_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::vector<std::shared_ptr<Connection>> conns_;
};

/// Blocking request/response client over the same socket.
class UnixClient {
 public:
  explicit UnixClient(std::string socket_path);
  ~UnixClient();

  UnixClient(const UnixClient&) = delete;
  UnixClient& operator=(const UnixClient&) = delete;

  bool connect(std::string* error);
  bool connected() const { return fd_ >= 0; }

  /// One request, one response; nullopt on transport failure.
  std::optional<Response> call(const Request& req);

  /// call() with up to policy.max_retries retries on retryable statuses,
  /// sleeping the backoff (jittered, hint-respecting) between attempts.
  std::optional<Response> call_with_retries(const Request& req,
                                            const BackoffPolicy& policy,
                                            RngStream& rng,
                                            std::size_t* attempts = nullptr);

 private:
  std::string path_;
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace tcast::service
