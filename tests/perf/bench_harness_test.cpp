// Self-tests for the benchmarking harness: the statistics it reports
// (min/median/MAD), the JSON writer and the tcast-bench-v1 report text, and
// the registry runner itself.
#include "perf/bench_harness.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <sstream>
#include <string>
#include <vector>

#include "perf/json.hpp"

namespace tcast::perf {
namespace {

TEST(BenchStats, MedianOddCount) {
  EXPECT_DOUBLE_EQ(median_of({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({9.0, 7.0, 1.0, 3.0, 5.0}), 5.0);
}

TEST(BenchStats, MedianEvenCountAveragesMiddlePair) {
  EXPECT_DOUBLE_EQ(median_of({1.0, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({10.0, 10.0, 10.0, 40.0}), 10.0);
}

TEST(BenchStats, MedianUnaffectedByOutlier) {
  EXPECT_DOUBLE_EQ(median_of({1.0, 2.0, 3.0, 4.0, 1e9}), 3.0);
}

TEST(BenchStats, MadOnKnownSamples) {
  // median = 3, deviations {2,1,0,1,2} -> MAD 1.
  EXPECT_DOUBLE_EQ(mad_of({1.0, 2.0, 3.0, 4.0, 5.0}), 1.0);
  // Constant series has zero spread.
  EXPECT_DOUBLE_EQ(mad_of({7.0, 7.0, 7.0}), 0.0);
  // median = 2.5, deviations {1.5,0.5,0.5,1.5} -> MAD 1.
  EXPECT_DOUBLE_EQ(mad_of({1.0, 2.0, 3.0, 4.0}), 1.0);
}

TEST(BenchStats, SummarizeComputesAllSixStats) {
  const std::vector<Sample> samples{
      {0.010, 0.009}, {0.030, 0.029}, {0.020, 0.019}};
  const Summary s = summarize(samples);
  EXPECT_EQ(s.reps, 3u);
  EXPECT_DOUBLE_EQ(s.wall_min_s, 0.010);
  EXPECT_DOUBLE_EQ(s.wall_median_s, 0.020);
  EXPECT_DOUBLE_EQ(s.wall_mad_s, 0.010);
  EXPECT_DOUBLE_EQ(s.cpu_min_s, 0.009);
  EXPECT_DOUBLE_EQ(s.cpu_median_s, 0.019);
  EXPECT_DOUBLE_EQ(s.cpu_mad_s, 0.010);
}

TEST(BenchJson, ValueRoundTrip) {
  const JsonValue v(JsonValue::Object{
      {"name", "x/y"},
      {"flag", true},
      {"nothing", nullptr},
      {"n", 0.1},  // not exactly representable: exercises %.17g
      {"list", JsonValue::Array{JsonValue(1.0), JsonValue("two")}},
  });
  EXPECT_EQ(v.dump(0),
            "{\"flag\":true,\"list\":[1,\"two\"],\"n\":0.10000000000000001,"
            "\"name\":\"x/y\",\"nothing\":null}");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    \"two\"\n"
            "  ],\n"
            "  \"n\": 0.10000000000000001,\n"
            "  \"name\": \"x/y\",\n"
            "  \"nothing\": null\n"
            "}");
  EXPECT_EQ(JsonValue(JsonValue::Array{}).dump(2), "[]");
  EXPECT_EQ(JsonValue(JsonValue::Object{}).dump(2), "{}");
  // %.17g text reads back as the identical double.
  for (const double d : {0.1, 1.0 / 3.0, 2.5e-300, 123456789.123456789}) {
    const std::string text = JsonValue(d).dump();
    double back = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), back);
    ASSERT_EQ(ec, std::errc{}) << text;
    EXPECT_EQ(ptr, text.data() + text.size()) << text;
    EXPECT_EQ(back, d) << text;
  }
}

TEST(BenchJson, StringEscapes) {
  EXPECT_EQ(JsonValue(std::string("a\"b\\c\nd\te\rf\x01g")).dump(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"");
  // Keys are escaped the same way.
  EXPECT_EQ(JsonValue(JsonValue::Object{{"k\"", 1}}).dump(),
            "{\"k\\\"\":1}");
}

TEST(BenchJson, BenchResultRoundTrip) {
  BenchResult r;
  r.name = "common/run_trials/fast";
  r.unit = "trial";
  r.params = {{"metrics", 3.0}, {"rng_draws_per_trial", 1.0}};
  r.items = 200000;
  r.timing.reps = 11;
  r.timing.wall_min_s = 0.004;
  r.timing.wall_median_s = 0.0042;
  r.timing.wall_mad_s = 0.0001;
  r.timing.cpu_min_s = 0.03;
  r.timing.cpu_median_s = 0.031;
  r.timing.cpu_mad_s = 0.0002;
  // Every field reads back from the result's JSON value.
  const JsonValue v = r.to_json();
  const auto& o = v.as_object();
  EXPECT_EQ(o.at("name").as_string(), r.name);
  EXPECT_EQ(o.at("unit").as_string(), r.unit);
  EXPECT_EQ(o.at("items").as_number(), static_cast<double>(r.items));
  EXPECT_EQ(o.at("reps").as_number(), static_cast<double>(r.timing.reps));
  EXPECT_EQ(o.at("params").as_object().at("metrics").as_number(), 3.0);
  const auto& stats = o.at("stats").as_object();
  EXPECT_EQ(stats.at("wall_median_s").as_number(), r.timing.wall_median_s);
  EXPECT_EQ(stats.at("cpu_mad_s").as_number(), r.timing.cpu_mad_s);
  EXPECT_EQ(o.at("items_per_s").as_number(), r.items_per_s());
  EXPECT_EQ(o.at("items_per_s_best").as_number(), r.items_per_s_best());
  // Throughput-only results carry no percentiles object.
  EXPECT_EQ(o.count("percentiles"), 0u);
}

// The schema tools/perf_gate.py and bench/e2e/noise.py read.
TEST(BenchJson, ReportMatchesExpectedText) {
  BenchResult r;
  r.name = "service/closed_loop";
  r.unit = "query";
  r.params = {{"queries", 400.0}};
  r.items = 200000;
  r.timing.reps = 5;
  r.timing.wall_min_s = 0.125;
  r.timing.wall_median_s = 0.25;
  r.timing.wall_mad_s = 0.0625;
  r.timing.cpu_min_s = 0.5;
  r.timing.cpu_median_s = 0.5;
  r.timing.cpu_mad_s = 0.0;
  r.percentiles = {{"p99_us", 12.5}};
  EXPECT_DOUBLE_EQ(r.items_per_s(), 800000.0);
  EXPECT_DOUBLE_EQ(r.items_per_s_best(), 1600000.0);

  Report rep;
  rep.quick = true;
  rep.host.compiler = "gcc";
  rep.host.build_type = "Release";
  rep.host.hardware_threads = 4;
  rep.host.affinity_cpus = 2;
  rep.results.push_back(r);
  EXPECT_EQ(rep.to_json_string(),
            "{\n"
            "  \"benchmarks\": [\n"
            "    {\n"
            "      \"items\": 200000,\n"
            "      \"items_per_s\": 800000,\n"
            "      \"items_per_s_best\": 1600000,\n"
            "      \"name\": \"service/closed_loop\",\n"
            "      \"params\": {\n"
            "        \"queries\": 400\n"
            "      },\n"
            "      \"percentiles\": {\n"
            "        \"p99_us\": 12.5\n"
            "      },\n"
            "      \"reps\": 5,\n"
            "      \"stats\": {\n"
            "        \"cpu_mad_s\": 0,\n"
            "        \"cpu_median_s\": 0.5,\n"
            "        \"cpu_min_s\": 0.5,\n"
            "        \"wall_mad_s\": 0.0625,\n"
            "        \"wall_median_s\": 0.25,\n"
            "        \"wall_min_s\": 0.125\n"
            "      },\n"
            "      \"unit\": \"query\"\n"
            "    }\n"
            "  ],\n"
            "  \"host\": {\n"
            "    \"affinity_cpus\": 2,\n"
            "    \"build_type\": \"Release\",\n"
            "    \"compiler\": \"gcc\",\n"
            "    \"hardware_threads\": 4\n"
            "  },\n"
            "  \"quick\": true,\n"
            "  \"schema\": \"tcast-bench-v1\"\n"
            "}\n");
}

TEST(BenchRegistry, RunsBodiesAndReportsItems) {
  BenchRegistry registry;
  int calls = 0;
  registry.add(Benchmark{"t/counting",
                         "op",
                         {{"k", 2.0}},
                         [&calls](bool quick) -> std::uint64_t {
                           ++calls;
                           return quick ? 10 : 100;
                         }});
  RunOptions opts;
  opts.quick = true;
  opts.reps = 3;
  opts.warmup = 1;
  std::ostringstream progress;
  const auto results = registry.run(opts, &progress);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(calls, 4);  // 1 warmup + 3 timed
  EXPECT_EQ(results[0].items, 10u);
  EXPECT_EQ(results[0].timing.reps, 3u);
  EXPECT_EQ(results[0].params.at("k"), 2.0);
  EXPECT_NE(progress.str().find("t/counting"), std::string::npos);
}

TEST(BenchRegistry, FilterSelectsBySubstring) {
  BenchRegistry registry;
  registry.add(Benchmark{"a/x", "op", {}, [](bool) { return 1ULL; }});
  registry.add(Benchmark{"b/y", "op", {}, [](bool) { return 1ULL; }});
  RunOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.warmup = 0;
  opts.filter = "b/";
  const auto results = registry.run(opts, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "b/y");
}

TEST(BenchRegistry, ExplicitZeroWarmupRunsNoWarmup) {
  BenchRegistry registry;
  int calls = 0;
  registry.add(Benchmark{"t/cold", "op", {}, [&calls](bool) {
                           ++calls;
                           return 1ULL;
                         }});
  RunOptions opts;
  opts.quick = true;
  opts.reps = 2;
  opts.warmup = 0;
  registry.run(opts, nullptr);
  EXPECT_EQ(calls, 2);  // the timed reps only
  opts.warmup.reset();
  calls = 0;
  registry.run(opts, nullptr);
  EXPECT_EQ(calls, 3);  // the quick default warm-up of 1, then 2 timed
}

TEST(BenchRegistry, QuickModeShrinksReps) {
  RunOptions opts;
  opts.quick = false;
  const std::size_t full = opts.effective_reps();
  opts.quick = true;
  EXPECT_LT(opts.effective_reps(), full);
  EXPECT_GE(opts.effective_reps(), 3u);  // still enough for a median + MAD
}

TEST(BenchHarness, ClocksAdvance) {
  const double w0 = wall_now();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(wall_now(), w0);
  EXPECT_GT(cpu_now(), 0.0);
}

}  // namespace
}  // namespace tcast::perf
