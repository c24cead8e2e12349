#include "core/probabilistic_threshold.hpp"

#include "common/check.hpp"
#include "group/binning.hpp"

namespace tcast::core {

ProbabilisticOutcome run_probabilistic_threshold(
    group::QueryChannel& channel, std::span<const NodeId> participants,
    const ProbabilisticThresholdOptions& opts, RngStream& rng) {
  TCAST_CHECK(opts.t_r > opts.t_l);
  TCAST_CHECK(opts.repeats >= 1);

  ProbabilisticOutcome out;
  out.plan = analysis::make_sampling_plan(opts.t_l, opts.t_r);
  const double inclusion = 1.0 / out.plan.b;

  group::BinAssignment bin;
  for (std::size_t i = 0; i < opts.repeats; ++i) {
    bin.assign_sampled(participants, inclusion, rng);
    if (channel.query_set(bin.bin(0)).nonempty()) ++out.nonempty_seen;
  }
  out.queries = opts.repeats;
  out.high_mode = static_cast<double>(out.nonempty_seen) >
                  out.plan.decision_cut(opts.repeats);
  return out;
}

}  // namespace tcast::core
