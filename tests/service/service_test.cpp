// TcastService routing and control-plane tests: sharded populations,
// control verbs, kill/reboot via requests, shutdown flush. Pumped by hand
// under a ManualClock — no drain threads, no races — except the last test,
// which runs the drain threads on the real clock.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace tcast::service {
namespace {

struct Harness {
  ManualClock clock;
  TcastService svc;

  explicit Harness(ServiceConfig cfg = {}) : svc(patch(cfg, clock)) {}

  static ServiceConfig patch(ServiceConfig cfg, const Clock& clock) {
    cfg.shard.clock = &clock;
    cfg.shard.checked = true;
    return cfg;
  }

  std::optional<Response> roundtrip(Request req) {
    std::optional<Response> out;
    svc.submit(std::move(req), [&](const Response& r) { out = r; });
    svc.drain_all();
    return out;
  }
};

Request make_load(const std::string& pop, std::size_t n, std::size_t x) {
  Request req;
  req.kind = RequestKind::kLoad;
  req.population = pop;
  req.n = n;
  req.x = x;
  req.seed = 11;
  return req;
}

Request make_query(const std::string& pop, std::size_t t) {
  Request req;
  req.kind = RequestKind::kQuery;
  req.population = pop;
  req.t = t;
  return req;
}

TEST(Service, PingPongs) {
  Harness h;
  Request req;
  req.kind = RequestKind::kPing;
  const auto resp = h.roundtrip(std::move(req));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->message, "pong");
}

TEST(Service, LoadQueryDropAcrossShards) {
  Harness h;
  // Enough names to hit multiple shards with high probability; correctness
  // must not depend on which shard a name lands on.
  for (int p = 0; p < 6; ++p) {
    const std::string pop = "pop" + std::to_string(p);
    const auto load = h.roundtrip(make_load(pop, 64, 20));
    ASSERT_TRUE(load.has_value());
    ASSERT_EQ(load->status, StatusCode::kOk) << pop;
    const auto yes = h.roundtrip(make_query(pop, 20));
    ASSERT_EQ(yes->status, StatusCode::kOk);
    EXPECT_TRUE(yes->decision);
    const auto no = h.roundtrip(make_query(pop, 21));
    ASSERT_EQ(no->status, StatusCode::kOk);
    EXPECT_FALSE(no->decision);
  }

  Request drop;
  drop.kind = RequestKind::kDrop;
  drop.population = "pop0";
  EXPECT_EQ(h.roundtrip(std::move(drop))->status, StatusCode::kOk);
  EXPECT_EQ(h.roundtrip(make_query("pop0", 5))->status,
            StatusCode::kNotFound);
}

TEST(Service, DeadlinePastTheClockRangeMeansNoDeadline) {
  // now + deadline-ms must not wrap around: a deadline too far out for the
  // microsecond clock is no deadline, not one that expired long ago (the
  // first and last value) or a few hundred µs long (the middle one).
  Harness h;
  h.clock.set_us(1'000'000);
  ASSERT_EQ(h.roundtrip(make_load("pop", 64, 20))->status, StatusCode::kOk);
  for (const char* ms :
       {"18446744073709551", "18446744073709552", "18446744073709551615"}) {
    auto req = Request::parse(
        std::string("query pop=pop t=20 approx=never deadline-ms=") + ms);
    ASSERT_TRUE(req.has_value()) << ms;
    std::optional<Response> out;
    h.svc.submit(std::move(*req), [&](const Response& r) { out = r; });
    h.clock.advance_us(1000);
    h.svc.drain_all();
    ASSERT_TRUE(out.has_value()) << ms;
    EXPECT_EQ(out->status, StatusCode::kOk) << ms << ": " << out->message;
    EXPECT_TRUE(out->decision) << ms;
  }
}

TEST(Service, ListAndStatsReflectState) {
  Harness h;
  ASSERT_EQ(h.roundtrip(make_load("alpha", 32, 4))->status, StatusCode::kOk);
  ASSERT_EQ(h.roundtrip(make_load("beta", 32, 4))->status, StatusCode::kOk);

  Request list;
  list.kind = RequestKind::kList;
  const auto listed = h.roundtrip(std::move(list));
  ASSERT_EQ(listed->status, StatusCode::kOk);
  EXPECT_NE(listed->message.find("alpha"), std::string::npos);
  EXPECT_NE(listed->message.find("beta"), std::string::npos);

  ASSERT_EQ(h.roundtrip(make_query("alpha", 4))->status, StatusCode::kOk);
  Request stats;
  stats.kind = RequestKind::kStats;
  const auto s = h.roundtrip(std::move(stats));
  ASSERT_EQ(s->status, StatusCode::kOk);
  EXPECT_NE(s->message.find("shard="), std::string::npos);
  EXPECT_NE(s->message.find("completed_exact=1"), std::string::npos);
  EXPECT_NE(s->message.find("p99_us="), std::string::npos);
}

TEST(Service, KillAndRebootShardViaRequests) {
  Harness h;
  ASSERT_EQ(h.roundtrip(make_load("pop", 32, 10))->status, StatusCode::kOk);
  const std::size_t idx = h.svc.shard_of("pop");

  Request kill;
  kill.kind = RequestKind::kKillShard;
  kill.shard = idx;
  ASSERT_EQ(h.roundtrip(std::move(kill))->status, StatusCode::kOk);

  const auto down = h.roundtrip(make_query("pop", 5));
  ASSERT_TRUE(down.has_value());  // liveness even on a dead shard
  EXPECT_EQ(down->status, StatusCode::kShardDown);

  Request reboot;
  reboot.kind = RequestKind::kRebootShard;
  reboot.shard = idx;
  ASSERT_EQ(h.roundtrip(std::move(reboot))->status, StatusCode::kOk);
  const auto ok = h.roundtrip(make_query("pop", 5));
  ASSERT_EQ(ok->status, StatusCode::kOk);
  EXPECT_TRUE(ok->decision);
}

TEST(Service, KillShardIndexOutOfRangeIsTyped) {
  Harness h;
  Request kill;
  kill.kind = RequestKind::kKillShard;
  kill.shard = 99;
  EXPECT_EQ(h.roundtrip(std::move(kill))->status,
            StatusCode::kInvalidArgument);
}

TEST(Service, ShutdownFlushesAndRejects) {
  Harness h;
  ASSERT_EQ(h.roundtrip(make_load("pop", 32, 10))->status, StatusCode::kOk);

  // Queue a query, then shut down before pumping: the queued query must be
  // flushed with a typed error, not hang.
  std::optional<Response> queued;
  h.svc.submit(make_query("pop", 5), [&](const Response& r) { queued = r; });

  Request shutdown;
  shutdown.kind = RequestKind::kShutdown;
  std::optional<Response> ack;
  h.svc.submit(std::move(shutdown), [&](const Response& r) { ack = r; });
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, StatusCode::kOk);

  h.svc.drain_all();
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->status, StatusCode::kShuttingDown);

  EXPECT_EQ(h.roundtrip(make_query("pop", 5))->status,
            StatusCode::kShuttingDown);
  Request ping;
  ping.kind = RequestKind::kPing;
  EXPECT_EQ(h.roundtrip(std::move(ping))->status, StatusCode::kShuttingDown);
}

// Each shard drains on its own thread: a long job on one shard must not
// delay a short one submitted to another while it runs.
TEST(Service, BusyShardDoesNotHoldBackAnother) {
  // Declared before the service, so they outlive its drain threads.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> finished;

  TcastService svc(ServiceConfig{});
  const std::string big = "big";
  std::string small;
  for (int i = 0; small.empty() || svc.shard_of(small) == svc.shard_of(big);
       ++i) {
    small = "small";
    small += std::to_string(i);
  }
  svc.start_drain_threads();

  const auto record = [&](std::string name) {
    return [&, name](const Response& r) {
      EXPECT_EQ(r.status, StatusCode::kOk) << name << ": " << r.message;
      std::lock_guard<std::mutex> lock(mu);
      finished.push_back(name);
      cv.notify_all();
    };
  };
  const auto wait_for = [&](std::size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(60),
                       [&] { return finished.size() >= count; });
  };

  svc.submit(make_load(big, 1 << 16, 1 << 15), record("load big"));
  svc.submit(make_load(small, 32, 8), record("load small"));
  ASSERT_TRUE(wait_for(2));

  // A census on N = 65536 keeps the big shard busy for tens of ms.
  Request census = make_query(big, 1 << 15);
  census.approx = ApproxMode::kRequire;
  svc.submit(std::move(census), record("census big"));
  Shard& busy = svc.shard(svc.shard_of(big));
  while (busy.queue_depth() > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  std::this_thread::sleep_for(std::chrono::milliseconds(3));

  svc.submit(make_query(small, 8), record("query small"));
  ASSERT_TRUE(wait_for(4));
  svc.stop_drain_threads();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(finished[2], "query small");
  EXPECT_EQ(finished[3], "census big");
}

}  // namespace
}  // namespace tcast::service
