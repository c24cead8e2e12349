// Core-tier microbenchmarks: the abstract-tier hot paths this repo's figure
// sweeps actually spend their time in — ExactChannel bin queries, the
// random-equal binning constructor, and whole registry-algorithm sweeps
// through the batched sweep engine.
#include "bench/micro/micro_benchmarks.hpp"

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "group/binning.hpp"
#include "group/exact_channel.hpp"
#include "perf/sweep_engine.hpp"

namespace tcast::bench {

namespace {

constexpr std::uint64_t kSeed = 0x7ca57ca57ca57ca5ULL;

/// One b-bin assignment over n nodes, every bin queried `sweeps` times
/// under the 1+ model — the Fig. 1 inner loop.
std::uint64_t exact_query_sweep(bool quick) {
  const std::size_t n = 4096, x = 64, bins = 32;
  const std::size_t sweeps = quick ? 200 : 2000;
  RngStream rng(kSeed, 101);
  auto ch = group::ExactChannel::with_random_positives(n, x, rng);
  RngStream binning_rng(kSeed, 102);
  const auto assignment =
      group::BinAssignment::random_equal(ch.all_nodes(), bins, binning_rng);
  ch.announce(assignment);
  std::uint64_t queries = 0;
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (std::size_t b = 0; b < bins; ++b) {
      (void)ch.query_bin(assignment, b);
      ++queries;
    }
  }
  return queries;
}

/// The x-grid of the paper's query-vs-x figures at (n=128, t=16).
std::vector<std::size_t> sweep_grid() {
  return {0, 4, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128};
}

/// Whole-figure-series sweep through the batched engine (per-thread
/// channel workspaces, NodeSet queries, arena binning).
std::uint64_t full_sweep_batched(const std::string& algorithm,
                                 std::uint64_t series, std::size_t trials) {
  perf::QuerySweepSpec spec;
  spec.algorithm = algorithm;
  spec.n = 128;
  spec.trials = trials;
  spec.seed = kSeed;
  for (const std::size_t x : sweep_grid())
    spec.points.push_back({x, 16, perf::sweep_point_id(90, series, x)});
  const auto result = perf::run_query_sweep(spec);
  std::uint64_t runs = 0;
  for (const auto& s : result.queries) runs += s.count();
  return runs;
}

}  // namespace

void register_core_benches(perf::BenchRegistry& registry) {
  registry.add(perf::Benchmark{
      "group/exact_channel/query_sweep",
      "query",
      {{"n", 4096}, {"x", 64}, {"bins", 32}},
      [](bool quick) { return exact_query_sweep(quick); }});

  registry.add(perf::Benchmark{
      "core/2tbins/full_sweep",
      "run",
      {{"n", 128}, {"t", 16}, {"points", 12}},
      [](bool quick) -> std::uint64_t {
        return full_sweep_batched("2tbins", 1, quick ? 30 : 300);
      }});

  registry.add(perf::Benchmark{
      "core/abns/full_sweep",
      "run",
      {{"n", 128}, {"t", 16}, {"points", 12}},
      [](bool quick) -> std::uint64_t {
        return full_sweep_batched("abns:t", 2, quick ? 20 : 200);
      }});

  registry.add(perf::Benchmark{
      "group/binning/random_equal",
      "assign",
      {{"n", 4096}, {"bins", 32}},
      [](bool quick) -> std::uint64_t {
        const std::size_t n = 4096, bins = 32;
        const std::size_t assigns = quick ? 200 : 2000;
        std::vector<NodeId> nodes(n);
        for (std::size_t i = 0; i < n; ++i)
          nodes[i] = static_cast<NodeId>(i);
        RngStream rng(kSeed, 103);
        group::BinAssignment assignment;  // reused arena across assignments
        for (std::size_t a = 0; a < assigns; ++a)
          assignment.assign_random_equal(nodes, bins, rng);
        return assigns;
      }});
}

}  // namespace tcast::bench
