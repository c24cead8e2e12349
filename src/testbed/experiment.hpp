// The Fig-4 mote experiment (Sec. IV-D): 2tBins on an emulated bench of 12
// participant TelosB motes, thresholds t ∈ {2, 4, 6}, 100 runs per (t, x)
// point, with fresh predicates on every mote for each run. Each threshold
// gets its own backcast PacketChannel world. Reports the query-count
// series plus the error census the paper reports in prose (102 / 7,200
// false-negative tcasts, none positive, majority at single-HACK bins).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace tcast::testbed {

struct MoteExperimentConfig {
  std::size_t participants = 12;
  std::vector<std::size_t> thresholds = {2, 4, 6};
  std::size_t runs_per_point = 100;
  std::uint64_t seed = 0xbe9cfeedULL;
  bool radio_irregularity = true;
};

struct MoteExperimentPoint {
  std::size_t t = 0;
  std::size_t x = 0;
  RunningStats queries;
  std::size_t runs = 0;
  std::size_t false_negative_runs = 0;  ///< truth ≥ t but decided false
  std::size_t false_positive_runs = 0;  ///< truth < t but decided true
};

/// Bin-level reception census keyed by k, the true positive count of the
/// queried bin (i.e. how many HACKs were superposed).
struct HackCensusEntry {
  std::size_t k = 0;
  std::size_t queried = 0;  ///< bins with exactly k positives queried
  std::size_t missed = 0;   ///< read as silent although k > 0
  std::size_t phantom = 0;  ///< read as non-empty although k == 0
};

struct MoteExperimentResults {
  std::vector<MoteExperimentPoint> points;
  std::vector<HackCensusEntry> census;
  std::size_t total_runs = 0;
  std::size_t total_queries = 0;
  std::size_t false_negative_runs = 0;
  std::size_t false_positive_runs = 0;

  double run_error_rate() const {
    return total_runs == 0
               ? 0.0
               : static_cast<double>(false_negative_runs +
                                     false_positive_runs) /
                     static_cast<double>(total_runs);
  }
};

MoteExperimentResults run_mote_experiment(
    const MoteExperimentConfig& cfg = {});

}  // namespace tcast::testbed
