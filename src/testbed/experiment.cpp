#include "testbed/experiment.hpp"

#include "common/rng.hpp"
#include "core/two_t_bins.hpp"
#include "group/instrumented_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast::testbed {

MoteExperimentResults run_mote_experiment(const MoteExperimentConfig& cfg) {
  MoteExperimentResults results;
  results.census.resize(cfg.participants + 1);
  for (std::size_t k = 0; k <= cfg.participants; ++k)
    results.census[k].k = k;

  // The motes query bins in natural order. Backcast is 1+, so the 2+
  // activity credit never applies.
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;

  RngStream workload_rng(cfg.seed, 0xA11CE);
  std::vector<bool> positive(cfg.participants);

  std::uint64_t stream = 0;
  for (const std::size_t t : cfg.thresholds) {
    // A fresh bench per threshold configuration (new seed stream), per the
    // paper's methodology.
    group::PacketChannel::Config bench_cfg;
    bench_cfg.seed = cfg.seed;
    bench_cfg.stream = ++stream;
    if (cfg.radio_irregularity)
      bench_cfg.channel.hack = radio::HackReceptionModel();  // calibrated
    group::PacketChannel bench(positive, bench_cfg);
    group::InstrumentedChannel channel(bench);
    // Bins are drawn from a stream of their own, apart from the radio's.
    RngStream binning_rng(cfg.seed ^ 0x5eedb1a5u, stream + 1);

    for (std::size_t x = 0; x <= cfg.participants; ++x) {
      MoteExperimentPoint point;
      point.t = t;
      point.x = x;
      for (std::size_t run = 0; run < cfg.runs_per_point; ++run) {
        // The paper reboots every mote between runs "to remove the effect
        // of the previous run"; here every predicate is set afresh, which
        // also makes the next query re-arm every responder.
        positive.assign(cfg.participants, false);
        for (const NodeId id : workload_rng.sample_subset(cfg.participants, x))
          positive[static_cast<std::size_t>(id)] = true;
        for (const NodeId id : bench.all_nodes())
          bench.set_positive(id, positive[static_cast<std::size_t>(id)]);
        channel.clear();

        const auto outcome = core::run_two_t_bins(channel, bench.all_nodes(),
                                                  t, binning_rng, opts);
        const bool truth = x >= t;
        point.queries.add(static_cast<double>(outcome.queries));
        ++point.runs;
        ++results.total_runs;
        results.total_queries += static_cast<std::size_t>(outcome.queries);
        if (truth && !outcome.decision) {
          ++point.false_negative_runs;
          ++results.false_negative_runs;
        }
        if (!truth && outcome.decision) {
          ++point.false_positive_runs;
          ++results.false_positive_runs;
        }

        for (const auto& record : channel.transcript()) {
          std::size_t k = 0;
          for (const NodeId id : record.nodes)
            if (positive[static_cast<std::size_t>(id)]) ++k;
          auto& entry = results.census[k];
          ++entry.queried;
          if (k > 0 && !record.result.nonempty()) ++entry.missed;
          if (k == 0 && record.result.nonempty()) ++entry.phantom;
        }
      }
      results.points.push_back(std::move(point));
    }
  }
  return results;
}

}  // namespace tcast::testbed
