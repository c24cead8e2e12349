// Wire codec and framing tests: the protocol doc promises
// parse(encode(r)) == r and that a hostile frame poisons the reader
// instead of the process.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tcast::service {
namespace {

TEST(RequestCodec, QueryRoundTrips) {
  Request req;
  req.kind = RequestKind::kQuery;
  req.population = "fleet";
  req.t = 17;
  req.algorithm = "abns:t";
  req.deadline_ms = 50;
  req.approx = ApproxMode::kNever;
  const auto parsed = Request::parse(req.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, req);
}

TEST(RequestCodec, LoadRoundTrips) {
  Request req;
  req.kind = RequestKind::kLoad;
  req.population = "p.0";
  req.n = 256;
  req.x = 40;
  req.seed = 12345;
  req.tier = BackendTier::kPacket;
  const auto parsed = Request::parse(req.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, req);
}

TEST(RequestCodec, ControlVerbsRoundTrip) {
  for (const auto kind :
       {RequestKind::kPing, RequestKind::kStats, RequestKind::kList,
        RequestKind::kShutdown}) {
    Request req;
    req.kind = kind;
    const auto parsed = Request::parse(req.encode());
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(parsed->kind, kind);
  }
  Request kill;
  kill.kind = RequestKind::kKillShard;
  kill.shard = 3;
  const auto parsed = Request::parse(kill.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, RequestKind::kKillShard);
  EXPECT_EQ(parsed->shard, 3u);
}

TEST(RequestCodec, RejectsGarbage) {
  EXPECT_FALSE(Request::parse("").has_value());
  EXPECT_FALSE(Request::parse("frobnicate pop=x").has_value());
  EXPECT_FALSE(Request::parse("query").has_value());  // missing pop
  EXPECT_FALSE(Request::parse("query pop=x bogus-key=1").has_value());
  EXPECT_FALSE(Request::parse("load pop=x n=notanumber").has_value());
  EXPECT_FALSE(Request::parse("query pop=x t=4 approx=maybe").has_value());
  EXPECT_FALSE(Request::parse("query pop=x t=4 approx=allow").has_value());
}

TEST(RequestCodec, QueryDefaultsToAnExactSession) {
  const auto parsed = Request::parse("query pop=x t=4");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->approx, ApproxMode::kNever);
  EXPECT_EQ(parsed->encode(),
            "query pop=x t=4 algo=2tbins deadline-ms=0 approx=never");
}

TEST(ResponseCodec, VerdictRoundTrips) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.decision = true;
  resp.mode = AnswerMode::kExact;
  resp.queries = 42;
  resp.shard = 1;
  resp.latency_us = 730;
  const auto parsed = Response::parse(resp.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, resp);
}

TEST(ResponseCodec, ApproximateAnswerCarriesItsBand) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.decision = false;
  resp.mode = AnswerMode::kApproximate;
  resp.estimate = 3.25;
  resp.epsilon = 0.35;
  resp.confidence = 0.9;
  resp.queries = 18;
  const auto parsed = Response::parse(resp.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mode, AnswerMode::kApproximate);
  EXPECT_DOUBLE_EQ(parsed->estimate, 3.25);
  EXPECT_DOUBLE_EQ(parsed->epsilon, 0.35);
  EXPECT_DOUBLE_EQ(parsed->confidence, 0.9);
}

TEST(ResponseCodec, TypedErrorRoundTrips) {
  Response resp;
  resp.status = StatusCode::kOverloaded;
  resp.retry_after_ms = 12;
  resp.message = "queue full, come back later";
  const auto parsed = Response::parse(resp.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, StatusCode::kOverloaded);
  EXPECT_EQ(parsed->retry_after_ms, 12u);
  EXPECT_EQ(parsed->message, resp.message);
}

TEST(Framing, RoundTripsThroughArbitraryChunking) {
  std::string stream;
  append_frame(stream, "first payload");
  append_frame(stream, "");
  append_frame(stream, "third");

  // Feed byte by byte: the reader must reassemble regardless of chunking.
  FrameReader reader;
  for (const char c : stream) reader.feed(&c, 1);

  EXPECT_EQ(reader.next(), "first payload");
  EXPECT_EQ(reader.next(), "");
  EXPECT_EQ(reader.next(), "third");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.error().has_value());
}

TEST(Framing, OversizeFramePoisonsTheReader) {
  const std::uint32_t huge = kMaxFrameBytes + 1;
  char header[4];
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  FrameReader reader;
  reader.feed(header, sizeof header);
  EXPECT_TRUE(reader.error().has_value());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(StatusCodes, RoundTripAndRetryability) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kOverloaded,
        StatusCode::kDeadlineExceeded, StatusCode::kShardDown,
        StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kShuttingDown}) {
    EXPECT_EQ(parse_status(to_string(code)), code);
  }
  EXPECT_TRUE(is_retryable(StatusCode::kOverloaded));
  EXPECT_TRUE(is_retryable(StatusCode::kShardDown));
  EXPECT_TRUE(is_retryable(StatusCode::kShuttingDown));
  EXPECT_FALSE(is_retryable(StatusCode::kOk));
  EXPECT_FALSE(is_retryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(is_retryable(StatusCode::kNotFound));
  EXPECT_FALSE(is_retryable(StatusCode::kInvalidArgument));
}

}  // namespace
}  // namespace tcast::service
