// Property tests for analysis/bounds and analysis/chernoff: monotonicity
// across (N, t) grids, dominance relations between the bounds, and
// agreement of the Chernoff/Hoeffding tail bound with an empirical
// Monte-Carlo error estimate at spot points.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "analysis/chernoff.hpp"
#include "analysis/estimators.hpp"
#include "common/monte_carlo.hpp"

namespace tcast::analysis {
namespace {

TEST(BoundsProperty, UpperBoundMonotoneInPopulation) {
  for (const std::size_t t : {1u, 4u, 16u, 64u}) {
    double prev = 0.0;
    for (std::size_t n = t; n <= 4096; n *= 2) {
      const double b = two_t_bins_upper_bound(n, t);
      EXPECT_GE(b, prev) << "n=" << n << " t=" << t;
      EXPECT_GE(b, 2.0 * static_cast<double>(t));  // at least one round
      prev = b;
    }
  }
}

TEST(BoundsProperty, LowerBoundMonotoneInPopulationAndBelowUpper) {
  for (const std::size_t t : {1u, 4u, 16u}) {
    double prev = 0.0;
    for (std::size_t n = 2 * t; n <= 4096; n *= 2) {
      const double lo = threshold_query_lower_bound(n, t);
      EXPECT_GE(lo, prev) << "n=" << n << " t=" << t;
      prev = lo;
      // The Ω-shape must not cross the paper's upper bound on any grid
      // point (constant-free forms, so compare directly).
      EXPECT_LE(lo, two_t_bins_upper_bound(n, t) + 1e-9)
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(BoundsProperty, ZeroXCostMonotone) {
  // (n − t)/(n/2t) = 2t(1 − t/n): increasing in n for fixed t, and
  // increasing in t while t ≤ n/2.
  for (const std::size_t t : {2u, 8u, 32u}) {
    double prev = 0.0;
    for (std::size_t n = 2 * t; n <= 2048; n *= 2) {
      const double c = two_t_bins_zero_x_cost(n, t);
      EXPECT_GE(c, prev);
      EXPECT_LE(c, 2.0 * static_cast<double>(t));  // never a full round more
      prev = c;
    }
  }
  for (std::size_t n : {64u, 256u}) {
    double prev = 0.0;
    for (std::size_t t = 1; t <= n / 2; t *= 2) {
      const double c = two_t_bins_zero_x_cost(n, t);
      EXPECT_GE(c, prev) << "n=" << n << " t=" << t;
      prev = c;
    }
  }
}

TEST(BoundsProperty, OracleBinCountPositiveAndPiecewiseSane) {
  for (const std::size_t n : {16u, 128u}) {
    for (const std::size_t t : {1u, 8u, 16u}) {
      for (std::size_t x = 0; x <= n; ++x) {
        const double b = oracle_bin_count(n, t, x);
        EXPECT_GE(b, 1.0);
        // The paper's b(x) never exceeds 2t + x + 1 anywhere on the grid.
        EXPECT_LE(b, 2.0 * static_cast<double>(t) +
                         static_cast<double>(x) + 1.0)
            << "n=" << n << " t=" << t << " x=" << x;
      }
    }
  }
}

TEST(BoundsProperty, EngineBoundDominatesEveryAnalyticCost) {
  // The conformance harness's per-run ceiling must sit above every
  // analytic cost form on the whole grid — otherwise it would flag
  // healthy runs.
  for (std::size_t n = 1; n <= 512; n = n * 2 + 1) {
    for (std::size_t t = 1; t <= n; t = t * 2 + 1) {
      const double ceiling = engine_query_bound(n, t);
      EXPECT_GT(ceiling, two_t_bins_upper_bound(n, t));
      EXPECT_GT(ceiling, two_t_bins_zero_x_cost(n, t));
      EXPECT_GT(ceiling, static_cast<double>(n));  // a full roll-call
    }
  }
}

TEST(ChernoffProperty, RepeatCountsMonotone) {
  // More confidence (smaller δ) or a smaller gap must never need fewer
  // repeats, for both the paper's Eq.-10 form and the Hoeffding form.
  for (const double gap : {0.1, 0.3, 0.6}) {
    std::size_t prev = 0;
    for (const double delta : {0.2, 0.1, 0.05, 0.01, 0.001}) {
      const std::size_t r = hoeffding_repeats(delta, gap);
      EXPECT_GE(r, prev) << "gap=" << gap << " delta=" << delta;
      prev = r;
    }
  }
  for (const double delta : {0.1, 0.01}) {
    std::size_t prev = 0;
    for (const double gap : {0.8, 0.4, 0.2, 0.1, 0.05}) {
      const std::size_t r = hoeffding_repeats(delta, gap);
      EXPECT_GE(r, prev) << "gap=" << gap << " delta=" << delta;
      prev = r;
      EXPECT_GE(paper_repeats(delta, gap),
                paper_repeats(delta, gap * 2.0));
    }
  }
}

TEST(ChernoffProperty, SamplingPlanGapIsPositiveAndOptimal) {
  for (const auto& [tl, tr] : {std::pair{4.0, 16.0}, {8.0, 48.0},
                               {20.0, 30.0}}) {
    const auto plan = make_sampling_plan(tl, tr);
    EXPECT_GT(plan.gap(), 0.0);
    // The closed-form b* must beat nearby b on the gap it maximises.
    for (const double factor : {0.8, 1.25}) {
      const double b = plan.b * factor;
      const double other_gap =
          nonempty_probability(b, tr) - nonempty_probability(b, tl);
      EXPECT_GE(plan.gap() + 1e-12, other_gap)
          << "tl=" << tl << " tr=" << tr << " factor=" << factor;
    }
  }
}

TEST(ChernoffProperty, TailBoundAgreesWithMonteCarloAtSpotPoints) {
  // At three spot points, simulate the repeated sampled-bin test at the
  // boundary rates and compare the empirical failure probability with the
  // two-sided Hoeffding tail 2·exp(−r·Δq²/2) that hoeffding_repeats
  // inverts. The bound must hold (with 3σ statistical slack) and must not
  // be vacuous at the spot points chosen.
  struct Spot {
    double t_l, t_r;
    std::size_t repeats;
  };
  for (const Spot spot : {Spot{4.0, 16.0, 9}, Spot{8.0, 48.0, 5},
                          Spot{16.0, 24.0, 199}}) {
    const auto plan = make_sampling_plan(spot.t_l, spot.t_r);
    const double cut = plan.decision_cut(spot.repeats);
    const double tail =
        2.0 * std::exp(-static_cast<double>(spot.repeats) *
                       plan.gap() * plan.gap() / 2.0);

    MonteCarloConfig cfg;
    cfg.trials = 4000;
    cfg.experiment_id =
        static_cast<std::uint64_t>(spot.repeats) * 1000 +
        static_cast<std::uint64_t>(spot.t_r);
    const auto failure = run_bool_trials(cfg, [&](RngStream& rng) {
      // Low mode at rate q_low: failure = count lands above the cut;
      // high mode at q_high: failure = count at or below the cut. Draw
      // one of the two modes per trial — the union bound the tail covers.
      const bool high = rng.bernoulli(0.5);
      const double q = high ? plan.q_high : plan.q_low;
      std::size_t nonempty = 0;
      for (std::size_t i = 0; i < spot.repeats; ++i)
        if (rng.bernoulli(q)) ++nonempty;
      const bool decided_high = static_cast<double>(nonempty) > cut;
      return decided_high != high;
    });

    const double empirical = failure.value();
    const double se = std::sqrt(
        empirical * (1.0 - empirical) / static_cast<double>(cfg.trials) +
        1e-12);
    EXPECT_LE(empirical - 3.0 * se, tail)
        << "t_l=" << spot.t_l << " t_r=" << spot.t_r
        << " r=" << spot.repeats << " empirical=" << empirical
        << " bound=" << tail;
    EXPECT_LT(tail, 1.0);  // the spot points keep the bound informative
  }
}

}  // namespace
}  // namespace tcast::analysis
