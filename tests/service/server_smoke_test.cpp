// End-to-end smoke over the real transport: an in-process UnixServer on a
// temp socket, a UnixClient speaking the framed protocol, drain threads
// running — the whole tcastd stack minus the process boundary. Labeled
// service_smoke so CI's main matrix can run exactly this.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace tcast::service {
namespace {

std::string temp_socket_path(const char* tag) {
  return "/tmp/tcast_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A connected socket for speaking raw frames (UnixClient only sends
/// well-formed requests, one at a time); -1 on failure.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Reads one response frame; nullopt on EOF, error or receive timeout.
std::optional<Response> read_response(int fd, FrameReader& reader) {
  for (;;) {
    if (auto payload = reader.next()) return Response::parse(*payload);
    char buf[512];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    reader.feed(buf, static_cast<std::size_t>(n));
  }
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

Request parse_or_die(const std::string& line) {
  const auto req = Request::parse(line);
  EXPECT_TRUE(req.has_value()) << line;
  return req.value_or(Request{});
}

TEST(ServerSmoke, LoadQueryStatsShutdownOverTheSocket) {
  TcastService svc(ServiceConfig{});
  svc.start_drain_threads();
  UnixServer server(svc, temp_socket_path("smoke"));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread loop([&] { server.run(); });

  UnixClient client(server.socket_path());
  ASSERT_TRUE(client.connect(&error)) << error;

  auto resp = client.call(parse_or_die("ping"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->message, "pong");

  resp = client.call(parse_or_die("load pop=fleet n=128 x=40 seed=7"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);

  resp = client.call(
      parse_or_die("query pop=fleet t=40 approx=never deadline-ms=5000"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_TRUE(resp->decision);  // x=40 >= t=40
  EXPECT_EQ(resp->mode, AnswerMode::kExact);

  resp = client.call(parse_or_die("query pop=fleet t=41 approx=never"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_FALSE(resp->decision);

  resp = client.call(parse_or_die("query pop=ghost t=1"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kNotFound);

  resp = client.call(parse_or_die("stats"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_NE(resp->message.find("completed_exact="), std::string::npos);

  resp = client.call(parse_or_die("shutdown"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);

  loop.join();  // run() exits once the service enters shutdown
  svc.stop_drain_threads();
}

TEST(ServerSmoke, RetryLoopRecoversFromAKilledShard) {
  ServiceConfig cfg;
  cfg.shards = 1;  // the kill below must hit the population's shard
  TcastService svc(cfg);
  svc.start_drain_threads();
  UnixServer server(svc, temp_socket_path("retry"));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread loop([&] { server.run(); });

  UnixClient client(server.socket_path());
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.call(parse_or_die("load pop=p n=64 x=10 seed=3"))->status,
            StatusCode::kOk);

  ASSERT_EQ(client.call(parse_or_die("kill shard=0"))->status,
            StatusCode::kOk);

  // Plain call: typed kShardDown, not a hang.
  auto resp = client.call(parse_or_die("query pop=p t=5"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kShardDown);

  // While the shard stays down, the retry loop spends its budget and ends
  // with the typed status after 1 + max_retries attempts.
  BackoffPolicy policy;
  policy.max_retries = 1;
  RngStream rng(1, 0);
  std::size_t attempts = 0;
  resp = client.call_with_retries(parse_or_die("query pop=p t=5"), policy,
                                  rng, &attempts);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kShardDown);
  EXPECT_EQ(attempts, 2u);

  // Reboot, then the retry loop must land a verdict.
  ASSERT_EQ(client.call(parse_or_die("reboot shard=0"))->status,
            StatusCode::kOk);
  policy.max_retries = 3;
  resp = client.call_with_retries(parse_or_die("query pop=p t=5"), policy,
                                  rng, &attempts);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_TRUE(resp->decision);
  EXPECT_GE(attempts, 1u);

  server.stop();
  loop.join();
  svc.stop_drain_threads();
}

TEST(ServerSmoke, SocketSetUpFailuresAreReported) {
  // A path longer than sockaddr_un holds, a directory that does not exist
  // and a socket nobody listens on: start() and connect() return false
  // with a reason, and an unconnected client's call() is nullopt.
  TcastService svc(ServiceConfig{});
  const std::string too_long = "/tmp/" + std::string(200, 'x') + ".sock";
  const std::string no_dir = "/tmp/tcast_test_no_such_dir_" +
                             std::to_string(::getpid()) + "/s.sock";
  std::string error;
  EXPECT_FALSE(UnixServer(svc, too_long).start(&error));
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(UnixServer(svc, no_dir).start(&error));
  EXPECT_FALSE(error.empty());

  UnixClient long_client(too_long);
  error.clear();
  EXPECT_FALSE(long_client.connect(&error));
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
  UnixClient lonely(temp_socket_path("nobody"));
  error.clear();
  EXPECT_FALSE(lonely.connect(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(lonely.call(parse_or_die("ping")).has_value());
}

TEST(ServerSmoke, UnparseableRequestGetsATypedResponse) {
  TcastService svc(ServiceConfig{});
  svc.start_drain_threads();
  UnixServer server(svc, temp_socket_path("badreq"));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread loop([&] { server.run(); });

  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  std::string framed;
  append_frame(framed, "this is not a protocol line");
  ASSERT_TRUE(send_all(fd, framed));

  FrameReader reader;
  const auto resp = read_response(fd, reader);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kInvalidArgument);
  ::close(fd);

  server.stop();
  loop.join();
  svc.stop_drain_threads();
}

// A client that stops reading makes the response write fail before the
// loop sees the hang-up; the server must still close the fd it accepted.
TEST(ServerSmoke, ClientThatStopsReadingLeaksNoFd) {
  TcastService svc(ServiceConfig{});
  svc.start_drain_threads();
  UnixServer server(svc, temp_socket_path("fdleak"));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread loop([&] { server.run(); });

  const std::size_t before = open_fd_count();
  std::string ping;
  append_frame(ping, "ping");
  for (int i = 0; i < 10; ++i) {
    const int fd = connect_raw(server.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
    ASSERT_TRUE(send_all(fd, ping));
    ::close(fd);
  }
  {
    // The loop accepts connections in order and reads a connection's
    // frames on the pass after it accepts it, so by the time a later
    // connection's ping is answered, every ping above was read and its
    // response write failed.
    UnixClient sync(server.socket_path());
    ASSERT_TRUE(sync.connect(&error)) << error;
    const auto pong = sync.call(parse_or_die("ping"));
    ASSERT_TRUE(pong.has_value());
  }
  // The loop closes each accepted fd once it reads the hang-up.
  std::size_t after = open_fd_count();
  for (int i = 0; i < 200 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_fd_count();
  }
  EXPECT_EQ(after, before);

  server.stop();
  loop.join();
  svc.stop_drain_threads();
}

// `shutdown` behind pipelined queries to every shard: each query gets
// exactly one response, in request order, written before run() returns.
TEST(ServerSmoke, ShutdownAnswersEveryPipelinedRequestInOrder) {
  TcastService svc(ServiceConfig{});
  svc.start_drain_threads();
  UnixServer server(svc, temp_socket_path("shutdown"));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread loop([&] { server.run(); });

  // One population per shard, x = 20 + shard.
  std::vector<std::string> pops(svc.shard_count());
  for (std::size_t i = 0, filled = 0; filled < pops.size(); ++i) {
    std::string name = "p";
    name += std::to_string(i);
    std::string& slot = pops[svc.shard_of(name)];
    if (slot.empty()) {
      slot = name;
      ++filled;
    }
  }
  UnixClient client(server.socket_path());
  ASSERT_TRUE(client.connect(&error)) << error;
  for (std::size_t s = 0; s < pops.size(); ++s) {
    std::string load = "load pop=" + pops[s];
    load += " n=64 x=";
    load += std::to_string(20 + s);
    const auto resp = client.call(parse_or_die(load));
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, StatusCode::kOk);
  }

  struct Sent {
    std::size_t shard;
    std::size_t t;
  };
  std::vector<Sent> sent;
  std::string wire;
  for (std::size_t i = 0; i < 8 * pops.size(); ++i) {
    const std::size_t s = i % pops.size();
    const std::size_t t = 18 + i % 7;
    std::string query = "query pop=" + pops[s];
    query += " approx=never t=";
    query += std::to_string(t);
    append_frame(wire, query);
    sent.push_back(Sent{s, t});
  }
  append_frame(wire, "shutdown");
  const int fd = connect_raw(server.socket_path());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, wire));
  loop.join();  // run() returns once the service has shut down

  // Every response is already in the socket buffer: a short receive
  // timeout turns a missing response into a failure, not a hang.
  const timeval timeout{0, 200 * 1000};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  FrameReader reader;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto resp = read_response(fd, reader);
    ASSERT_TRUE(resp.has_value()) << "no response to request " << i;
    EXPECT_EQ(resp->shard, sent[i].shard) << "request " << i;
    if (resp->status == StatusCode::kOk) {
      EXPECT_EQ(resp->decision, 20 + sent[i].shard >= sent[i].t)
          << "request " << i;
    } else {
      EXPECT_EQ(resp->status, StatusCode::kShuttingDown) << "request " << i;
    }
  }
  const auto ack = read_response(fd, reader);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, StatusCode::kOk);
  EXPECT_EQ(ack->message, "shutting down");
  EXPECT_FALSE(read_response(fd, reader).has_value());  // nothing more
  ::close(fd);
  svc.stop_drain_threads();
}

}  // namespace
}  // namespace tcast::service
