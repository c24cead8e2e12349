// Deterministic overload-ladder tests against one Shard under a
// ManualClock: every rung — admission rejection, deadline shedding,
// mid-run cancellation, kill/reboot — is a scripted event here, not a
// race.
#include "service/shard.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace tcast::service {
namespace {

Request load_req(const std::string& pop, std::size_t n, std::size_t x,
                 std::uint64_t seed = 7) {
  Request req;
  req.kind = RequestKind::kLoad;
  req.population = pop;
  req.n = n;
  req.x = x;
  req.seed = seed;
  return req;
}

/// A query in the wire's default mode (an exact session).
Request query_req(const std::string& pop, std::size_t t,
                  std::uint64_t deadline_ms = 0) {
  Request req;
  req.kind = RequestKind::kQuery;
  req.population = pop;
  req.t = t;
  req.deadline_ms = deadline_ms;
  return req;
}

/// A census query (approx=require).
Request census_req(const std::string& pop, std::size_t t,
                   std::uint64_t deadline_ms = 0) {
  Request req = query_req(pop, t, deadline_ms);
  req.approx = ApproxMode::kRequire;
  return req;
}

/// Submits and keeps the eventual response findable by index.
class Collector {
 public:
  void submit(Shard& shard, Request req) {
    const std::size_t slot = responses_.size();
    responses_.emplace_back();
    shard.submit(std::move(req), [this, slot](const Response& r) {
      responses_[slot] = r;
    });
  }

  const std::optional<Response>& at(std::size_t i) const {
    return responses_.at(i);
  }
  std::size_t resolved() const {
    std::size_t n = 0;
    for (const auto& r : responses_)
      if (r.has_value()) ++n;
    return n;
  }
  std::size_t size() const { return responses_.size(); }

 private:
  std::vector<std::optional<Response>> responses_;
};

ShardConfig config(const Clock& clock) {
  ShardConfig cfg;
  cfg.clock = &clock;
  cfg.checked = true;  // conformance guard on: violations must stay 0
  return cfg;
}

TEST(Shard, ExactVerdictsMatchGroundTruth) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 64, 20));
  shard.drain();
  for (const std::size_t t : {1u, 19u, 20u, 21u, 64u}) {
    out.submit(shard, query_req("p", t));
    shard.drain();
  }
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_TRUE(out.at(i).has_value());
    const Response& r = *out.at(i);
    ASSERT_EQ(r.status, StatusCode::kOk);
    EXPECT_EQ(r.mode, AnswerMode::kExact);
  }
  EXPECT_TRUE(out.at(1)->decision);    // t=1  <= x=20
  EXPECT_TRUE(out.at(2)->decision);    // t=19
  EXPECT_TRUE(out.at(3)->decision);    // t=20
  EXPECT_FALSE(out.at(4)->decision);   // t=21 > x
  EXPECT_FALSE(out.at(5)->decision);   // t=64
  EXPECT_EQ(shard.stats().conformance_violations, 0u);
}

TEST(Shard, ExactLoadHonoursModel) {
  // The same population loaded as 1+ and as 2+ answers the same queries
  // correctly either way, but 2+ captures confirm positives for free, so
  // the 2+ load must spend fewer queries in total.
  const std::size_t thresholds[] = {5, 10, 19, 20, 21, 30};
  std::uint64_t total_queries[2] = {0, 0};
  const group::CollisionModel models[2] = {group::CollisionModel::kOnePlus,
                                           group::CollisionModel::kTwoPlus};
  for (std::size_t m = 0; m < 2; ++m) {
    ManualClock clock;
    Shard shard(0, config(clock));
    Collector out;
    Request load = load_req("p", 64, 20);
    load.model = models[m];
    out.submit(shard, std::move(load));
    shard.drain();
    for (const std::size_t t : thresholds) {
      out.submit(shard, query_req("p", t));
      shard.drain();
    }
    ASSERT_EQ(out.at(0)->status, StatusCode::kOk);
    for (std::size_t i = 0; i < std::size(thresholds); ++i) {
      const Response& r = *out.at(i + 1);
      ASSERT_EQ(r.status, StatusCode::kOk);
      EXPECT_EQ(r.mode, AnswerMode::kExact);
      EXPECT_EQ(r.decision, thresholds[i] <= 20u)  // x = 20
          << group::to_string(models[m]) << " t=" << thresholds[i];
      total_queries[m] += r.queries;
    }
    EXPECT_EQ(shard.stats().conformance_violations, 0u);
  }
  EXPECT_LT(total_queries[1], total_queries[0]);
}

TEST(Shard, FullQueueRejectsWithRetryAfterHint) {
  ManualClock clock;
  ShardConfig cfg = config(clock);
  cfg.queue_capacity = 2;
  Shard shard(0, cfg);
  Collector out;
  out.submit(shard, load_req("p", 32, 10));
  shard.drain();

  out.submit(shard, query_req("p", 5));  // queued
  out.submit(shard, query_req("p", 5));  // queued (queue now full)
  out.submit(shard, query_req("p", 5));  // rejected at admission
  ASSERT_TRUE(out.at(3).has_value());
  EXPECT_EQ(out.at(3)->status, StatusCode::kOverloaded);
  EXPECT_GE(out.at(3)->retry_after_ms, 1u);
  EXPECT_EQ(shard.stats().rejected_overload, 1u);

  shard.drain();
  EXPECT_EQ(out.resolved(), out.size());
  EXPECT_EQ(out.at(1)->status, StatusCode::kOk);
  EXPECT_EQ(out.at(2)->status, StatusCode::kOk);
}

TEST(Shard, DeadlineExpiredInQueueIsShedAsTypedError) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 32, 10));
  shard.drain();

  out.submit(shard, query_req("p", 5, /*deadline_ms=*/5));
  clock.advance_us(6000);  // budget blown while queued
  shard.drain();

  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(out.at(1)->status, StatusCode::kDeadlineExceeded);
  const auto stats = shard.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.cancelled_deadline, 0u);  // never reached the engine
  EXPECT_EQ(stats.completed_exact, 0u);
}

/// Clock whose every read advances time: the deterministic way to make a
/// deadline expire *inside* an engine run (each cancel poll is a read).
class SteppingClock final : public Clock {
 public:
  explicit SteppingClock(TimeUs step) : step_(step) {}
  TimeUs now_us() const override {
    return t_.fetch_add(step_, std::memory_order_acq_rel);
  }

 private:
  TimeUs step_;
  mutable std::atomic<TimeUs> t_{0};
};

TEST(Shard, DeadlineTrippedMidRunIsACancelNotAVerdict) {
  SteppingClock clock(500);  // every look at the clock costs 500us
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 256, 100));
  shard.drain();

  // 2ms budget = 4 clock reads: submit, the dequeue shed check, the
  // pre-run poll, and the token's read at its 33rd poll; its read at the
  // 65th poll, before the 64th engine query, finds the deadline passed. A
  // 1+ t=64 run certifies at most one positive per query, so it needs at
  // least 64 queries and the token trips mid-run.
  out.submit(shard, query_req("p", 64, /*deadline_ms=*/2));
  shard.drain();

  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(out.at(1)->status, StatusCode::kDeadlineExceeded);
  const auto stats = shard.stats();
  EXPECT_EQ(stats.cancelled_deadline, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
  EXPECT_EQ(stats.completed_exact, 0u);  // no fabricated verdict
}

/// Clock that counts its reads and can kill a shard on a chosen one. Time
/// stands still, so no deadline ever passes.
class CountingClock final : public Clock {
 public:
  TimeUs now_us() const override {
    ++reads_;
    if (victim_ != nullptr && reads_ == kill_at_) victim_->kill();
    return 0;
  }
  std::uint64_t reads() const { return reads_; }
  /// Kills `shard` on the `n`-th read from now.
  void kill_on_read(Shard& shard, std::uint64_t n) {
    victim_ = &shard;
    kill_at_ = reads_ + n;
  }

 private:
  mutable std::uint64_t reads_ = 0;
  Shard* victim_ = nullptr;
  std::uint64_t kill_at_ = 0;
};

TEST(Shard, DeadlineReadsTheClockOncePerStride) {
  CountingClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 1024, 128));
  shard.drain();

  const std::uint64_t before = clock.reads();
  out.submit(shard, query_req("p", 128, /*deadline_ms=*/50));
  shard.drain();
  ASSERT_EQ(out.at(1)->status, StatusCode::kOk);
  // The engine polls the token once per query on a lossless channel. Four
  // reads are not the token's strided ones: submit, the dequeue shed
  // check, the pre-run check (the token's first poll) and finish.
  const std::uint64_t polls = out.at(1)->queries;
  const std::uint64_t stride = QueryCancelToken::kClockStride;
  ASSERT_GE(polls, 4 * stride);
  EXPECT_LE(clock.reads() - before, (polls + stride - 1) / stride + 4)
      << polls << " engine polls";
}

TEST(Shard, KillTripsAtTheNextPoll) {
  CountingClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 1024, 128));
  shard.drain();

  // Reads 1-3 are submit, the shed check and the pre-run poll; read 4 is
  // the token's poll before engine query kClockStride, when kClockStride
  // - 1 queries have run. The kill lands there, after that poll has loaded
  // the flag, so one more query runs and the next poll, which reads no
  // clock, must trip on the flag.
  clock.kill_on_read(shard, 4);
  out.submit(shard, query_req("p", 128, /*deadline_ms=*/50));
  shard.drain();

  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(out.at(1)->status, StatusCode::kShardDown);
  EXPECT_LE(out.at(1)->queries, QueryCancelToken::kClockStride);
  const auto stats = shard.stats();
  EXPECT_EQ(stats.cancelled_kill, 1u);
  EXPECT_EQ(stats.completed_exact, 0u);  // no fabricated verdict
}

TEST(Shard, ApproxRequireAnswersFromTheCountingPath) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 64, 30));
  shard.drain();
  out.submit(shard, census_req("p", 16));
  shard.drain();
  const Response& r = *out.at(1);
  ASSERT_EQ(r.status, StatusCode::kOk);
  if (r.mode == AnswerMode::kApproximate) {
    EXPECT_GT(r.epsilon, 0.0);
    EXPECT_GT(r.confidence, 0.0);
    EXPECT_GT(r.estimate, 0.0);
  }
  const auto stats = shard.stats();
  EXPECT_EQ(stats.completed_exact + stats.completed_approx, 1u);
}

TEST(Shard, KilledShardFlushesQueueAndRecoversOnReboot) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 32, 10));
  shard.drain();

  out.submit(shard, query_req("p", 5));
  out.submit(shard, query_req("p", 5));
  shard.kill();
  shard.drain();  // a killed shard still drains: typed errors, no hangs

  for (std::size_t i = 1; i <= 2; ++i) {
    ASSERT_TRUE(out.at(i).has_value());
    EXPECT_EQ(out.at(i)->status, StatusCode::kShardDown);
    EXPECT_GE(out.at(i)->retry_after_ms, 1u);
  }
  EXPECT_EQ(shard.stats().cancelled_kill, 2u);

  shard.reboot();
  out.submit(shard, query_req("p", 5));  // populations survive the reboot
  shard.drain();
  ASSERT_TRUE(out.at(3).has_value());
  EXPECT_EQ(out.at(3)->status, StatusCode::kOk);
  EXPECT_TRUE(out.at(3)->decision);
}

TEST(Shard, ShutdownRejectsNewWorkAndFlushesQueued) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, load_req("p", 32, 10));
  shard.drain();
  out.submit(shard, query_req("p", 5));
  shard.shutdown();
  out.submit(shard, query_req("p", 5));  // rejected synchronously
  ASSERT_TRUE(out.at(2).has_value());
  EXPECT_EQ(out.at(2)->status, StatusCode::kShuttingDown);
  shard.drain();  // queued work flushed, not hung
  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(out.at(1)->status, StatusCode::kShuttingDown);
}

TEST(Shard, TypedErrorsForBadRequests) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  out.submit(shard, query_req("ghost", 5));
  Request drop;
  drop.kind = RequestKind::kDrop;
  drop.population = "ghost";
  out.submit(shard, std::move(drop));
  out.submit(shard, load_req("p", 32, 10));
  shard.drain();
  EXPECT_EQ(out.at(0)->status, StatusCode::kNotFound);
  EXPECT_EQ(out.at(1)->status, StatusCode::kNotFound);

  // The service answers control verbs itself; one that reaches a shard is
  // a typed error, not a crash or a silent drop.
  Request ping;
  ping.kind = RequestKind::kPing;
  out.submit(shard, std::move(ping));
  out.submit(shard, query_req("p", 0));    // t out of range
  out.submit(shard, query_req("p", 33));   // t > n
  out.submit(shard, load_req("big", 32, 40));  // x > n
  Request oracle = query_req("p", 5);
  oracle.algorithm = "oracle";
  out.submit(shard, std::move(oracle));
  Request unknown = query_req("p", 5);
  unknown.algorithm = "no-such-algo";
  out.submit(shard, std::move(unknown));
  shard.drain();
  for (std::size_t i = 3; i < out.size(); ++i) {
    ASSERT_TRUE(out.at(i).has_value()) << i;
    EXPECT_EQ(out.at(i)->status, StatusCode::kInvalidArgument) << i;
  }
}

/// What a client sees of one answer.
struct Answer {
  StatusCode status = StatusCode::kOk;
  bool decision = false;
  AnswerMode mode = AnswerMode::kExact;
  QueryCount queries = 0;
};

/// What else the shard serves while population "a" answers its queries.
enum class Neighbour { kNone, kSameThresholds, kBacklog };

/// Runs a fixed sequence of abns:t and 2tbins queries on "a" (N=256,
/// x=32), sharing one shard with "b" (N=256, x=90), and returns a's
/// answers in order. One drain() serves a whole backlog.
std::vector<Answer> answers_of_a(Neighbour neighbour) {
  ManualClock clock;
  ShardConfig cfg = config(clock);
  cfg.batch_max = cfg.queue_capacity;
  Shard shard(0, cfg);
  Collector out;
  out.submit(shard, load_req("a", 256, 32, 7));
  out.submit(shard, load_req("b", 256, 90, 11));
  shard.drain();

  std::vector<std::size_t> slots;
  for (std::size_t t = 30; t <= 37; ++t) {
    for (const char* algorithm : {"abns:t", "2tbins"}) {
      if (neighbour == Neighbour::kSameThresholds) {
        Request b = query_req("b", t);
        b.algorithm = algorithm;
        out.submit(shard, std::move(b));
      } else if (neighbour == Neighbour::kBacklog) {
        for (int i = 0; i < 32; ++i) out.submit(shard, query_req("b", t));
      }
      Request a = query_req("a", t);
      a.algorithm = algorithm;
      slots.push_back(out.size());
      out.submit(shard, std::move(a));
      shard.drain();
    }
  }
  EXPECT_EQ(out.resolved(), out.size());
  EXPECT_EQ(shard.stats().conformance_violations, 0u);

  std::vector<Answer> answers;
  for (const std::size_t slot : slots) {
    const Response& r = *out.at(slot);
    answers.push_back({r.status, r.decision, r.mode, r.queries});
  }
  return answers;
}

TEST(Shard, AnswerDependsOnlyOnItsOwnPopulation) {
  // An answer is a function of its own population's seed and query
  // history. Neither another population of the same N queried at the same
  // thresholds (whose ABNS estimate must not warm-start a's runs) nor a
  // backlog queued ahead (which must not switch a's queries to the census)
  // may change a single one of a's answers.
  const std::vector<Answer> alone = answers_of_a(Neighbour::kNone);
  for (const Answer& a : alone) {
    EXPECT_EQ(a.status, StatusCode::kOk);
    EXPECT_EQ(a.mode, AnswerMode::kExact);
  }
  for (const Neighbour neighbour :
       {Neighbour::kSameThresholds, Neighbour::kBacklog}) {
    const std::vector<Answer> shared = answers_of_a(neighbour);
    ASSERT_EQ(shared.size(), alone.size());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      const auto tag = ::testing::Message()
                       << "neighbour " << static_cast<int>(neighbour)
                       << ", query " << i;
      EXPECT_EQ(shared[i].status, alone[i].status) << tag;
      EXPECT_EQ(shared[i].decision, alone[i].decision) << tag;
      EXPECT_EQ(shared[i].mode, alone[i].mode) << tag;
      EXPECT_EQ(shared[i].queries, alone[i].queries) << tag;
    }
  }
}

TEST(Shard, CensusCancelledMidRunGivesNoEstimate) {
  // A census polls the token before every probe, so a kill or a deadline
  // trips it mid-run like an exact session: a typed error, no estimate.
  {
    CountingClock clock;
    Shard shard(0, config(clock));
    Collector out;
    out.submit(shard, load_req("p", 256, 100));
    shard.drain();
    // Read 4 is the token's clock read at its 33rd poll (see
    // KillTripsAtTheNextPoll); a census polls well over 33 times.
    clock.kill_on_read(shard, 4);
    out.submit(shard, census_req("p", 100, /*deadline_ms=*/50));
    shard.drain();
    ASSERT_TRUE(out.at(1).has_value());
    const Response& r = *out.at(1);
    EXPECT_EQ(r.status, StatusCode::kShardDown);
    EXPECT_EQ(r.estimate, 0.0);
    EXPECT_EQ(r.epsilon, 0.0);
    EXPECT_GT(r.queries, 0u);
    const auto stats = shard.stats();
    EXPECT_EQ(stats.cancelled_kill, 1u);
    EXPECT_EQ(stats.completed_approx, 0u);
  }
  {
    SteppingClock clock(500);
    Shard shard(0, config(clock));
    Collector out;
    out.submit(shard, load_req("p", 256, 100));
    shard.drain();
    // 2 ms = 4 reads (DeadlineTrippedMidRunIsACancelNotAVerdict): the
    // token's read at its 65th poll finds the deadline passed.
    out.submit(shard, census_req("p", 100, /*deadline_ms=*/2));
    shard.drain();
    ASSERT_TRUE(out.at(1).has_value());
    const Response& r = *out.at(1);
    EXPECT_EQ(r.status, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(r.estimate, 0.0);
    EXPECT_EQ(r.epsilon, 0.0);
    EXPECT_GT(r.queries, 0u);
    const auto stats = shard.stats();
    EXPECT_EQ(stats.cancelled_deadline, 1u);
    EXPECT_EQ(stats.completed_approx, 0u);
  }
}

TEST(Shard, PacketTierServesVerdicts) {
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  Request load = load_req("pk", 64, 25);
  load.tier = BackendTier::kPacket;
  out.submit(shard, std::move(load));
  shard.drain();
  out.submit(shard, query_req("pk", 10));
  shard.drain();
  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(out.at(1)->status, StatusCode::kOk);
  EXPECT_TRUE(out.at(1)->decision);  // x=25 >= t=10
}

TEST(Shard, PacketLoadBeyondTheBackcastBinLimitIsInvalid) {
  // A 1+ packet world polls bin g at a hardware address of backcast's
  // ephemeral block, which holds 8,176 bins; an engine may use up to n.
  ManualClock clock;
  Shard shard(0, config(clock));
  Collector out;
  Request load = load_req("big", 8200, 4099);
  load.tier = BackendTier::kPacket;
  out.submit(shard, std::move(load));
  shard.drain();
  ASSERT_TRUE(out.at(0).has_value());
  EXPECT_EQ(out.at(0)->status, StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tcast::service
