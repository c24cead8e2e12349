// Batched figure-sweep engine.
//
// Every figure bench is the same shape: for each sweep point (an (x, t)
// pair with its own experiment id), run `trials` Monte-Carlo trials of one
// registry algorithm on a fresh ExactChannel and average the query counts.
// Running that point-by-point through run_trials() reconstructs an
// ExactChannel — participant list, ground-truth set, capture model — from
// scratch for every single trial, and that construction is what the figure
// binaries actually spend their time on.
//
// run_query_sweep() runs the whole (grid × trials) sweep in one call: the
// flattened trial space fans out across the pool, and each worker thread
// keeps ONE ExactChannel workspace that it re-seeds per trial
// (assign_random_positives + rebind_rng) instead of reconstructing.
//
// Determinism contract: bit-identical to the per-point run_trials() loop.
// Trial (p, i) draws from RngStream(seed, trial_stream_id(points[p].
// experiment_id, i)) — the same stream the unbatched path used — the
// re-seeding consumes exactly the draw sequence of the fresh-construction
// path, and per-point reduction walks trials in order, so neither the
// worker count nor the batching is observable in the output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/round_engine.hpp"
#include "group/exact_channel.hpp"

namespace tcast::perf {

/// Deterministic experiment-id for a sweep point, namespacing the RNG
/// streams per (figure, series, x). The formula every figure binary has
/// used since PR 0 — changing it would renumber all trial streams.
constexpr std::uint64_t sweep_point_id(std::uint64_t figure,
                                       std::uint64_t series,
                                       std::uint64_t x) {
  return figure * 1000000 + series * 10000 + x;
}

/// One sweep point: a ground-truth size, a threshold, and the experiment id
/// that namespaces its trial streams.
struct SweepPoint {
  std::size_t x = 0;                 ///< positives drawn per trial
  std::size_t t = 0;                 ///< threshold queried
  std::uint64_t experiment_id = 0;   ///< usually sweep_point_id(...)
};

struct QuerySweepSpec {
  std::string algorithm = "2tbins";  ///< registry name (core/registry.hpp)
  std::size_t n = 0;                 ///< participants per trial
  std::vector<SweepPoint> points;
  std::size_t trials = 1000;
  std::uint64_t seed = 0x7ca57ca57ca57ca5ULL;
  group::ExactChannel::Config channel;  ///< model / capture
  core::EngineOptions engine;           ///< paper accounting defaults
  ThreadPool* pool = nullptr;           ///< nullptr = global pool
};

struct QuerySweepResult {
  /// One per spec.points entry: query-count statistics over the trials,
  /// reduced in trial order.
  std::vector<RunningStats> queries;
};

/// Runs the whole sweep. Aborts (TCAST_CHECK) on an unknown algorithm name.
QuerySweepResult run_query_sweep(const QuerySweepSpec& spec);

}  // namespace tcast::perf
