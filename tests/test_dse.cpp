// Design-space exploration: space operations, error-model fidelity against
// the bit-accurate simulator, cost-model monotonicity, and Pareto search.
#include <gtest/gtest.h>

#include "dse/bayesopt.hpp"

namespace flash::dse {
namespace {

SpaceBounds test_bounds() { return SpaceBounds{10, 39, 2, 18}; }

TEST(Space, RandomPointsInBounds) {
  DesignSpace space(256, test_bounds());
  std::mt19937_64 rng(91);
  for (int i = 0; i < 100; ++i) {
    const DesignPoint p = space.random(rng);
    ASSERT_EQ(p.stage_widths.size(), 8u);
    for (int w : p.stage_widths) {
      EXPECT_GE(w, 10);
      EXPECT_LE(w, 39);
    }
    EXPECT_GE(p.twiddle_k, 2);
    EXPECT_LE(p.twiddle_k, 18);
  }
}

TEST(Space, MutationStaysInBoundsAndChangesSomething) {
  DesignSpace space(256, test_bounds());
  std::mt19937_64 rng(92);
  const DesignPoint p = space.random(rng);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    const DesignPoint q = space.mutate(p, rng);
    if (!(q == p)) ++changed;
    for (int w : q.stage_widths) {
      EXPECT_GE(w, 10);
      EXPECT_LE(w, 39);
    }
  }
  EXPECT_GT(changed, 40);
}

TEST(Space, ToConfigAllocatesIntegerGrowth) {
  DesignSpace space(256, test_bounds());
  DesignPoint p;
  p.stage_widths.assign(8, 30);
  p.twiddle_k = 8;
  const fft::FxpFftConfig cfg = space.to_config(p, 8.0);
  ASSERT_EQ(cfg.stage_frac_bits.size(), 8u);
  // Later stages have more integer growth, hence fewer fraction bits.
  EXPECT_GT(cfg.stage_frac_bits.front(), cfg.stage_frac_bits.back());
  EXPECT_EQ(cfg.twiddle_k, 8);
}

TEST(ErrorModel, PredictsLessErrorForWiderWidths) {
  DesignSpace space(1024, test_bounds());
  const ErrorModel model = ErrorModel::from_weight_stats(2048, 72, 8.0);
  DesignPoint narrow, wide;
  narrow.stage_widths.assign(10, 14);
  narrow.twiddle_k = 4;
  wide.stage_widths.assign(10, 36);
  wide.twiddle_k = 16;
  EXPECT_GT(model.predict_variance(space, narrow), model.predict_variance(space, wide));
}

TEST(ErrorModel, AnalyticalTracksMonteCarloOrdering) {
  // The analytical model must rank design points like the bit-accurate
  // simulator (that is all the DSE needs from it).
  const std::size_t n = 512;
  DesignSpace space(n / 2, test_bounds());
  const ErrorModel model = ErrorModel::from_weight_stats(n, 36, 8.0);
  std::mt19937_64 rng(94);

  std::vector<DesignPoint> points;
  for (int w : {14, 20, 26, 34}) {
    DesignPoint p;
    p.stage_widths.assign(static_cast<std::size_t>(space.stages()), w);
    p.twiddle_k = w / 2;
    points.push_back(p);
  }
  double prev_analytical = 1e300, prev_measured = 1e300;
  for (const auto& p : points) {
    const double analytical = model.predict_variance(space, p);
    const double measured =
        measured_error_variance(n, space.to_config(p, 8.0), 36, 8, 6, rng);
    EXPECT_LT(analytical, prev_analytical);
    EXPECT_LT(measured, prev_measured * 1.2);
    prev_analytical = analytical;
    prev_measured = measured;
  }
}

TEST(ErrorModel, AnalyticalWithinOrdersOfMagnitude) {
  const std::size_t n = 512;
  DesignSpace space(n / 2, test_bounds());
  const ErrorModel model = ErrorModel::from_weight_stats(n, 36, 8.0);
  std::mt19937_64 rng(95);
  DesignPoint p;
  p.stage_widths.assign(static_cast<std::size_t>(space.stages()), 24);
  p.twiddle_k = 10;
  const double analytical = model.predict_variance(space, p);
  const double measured = measured_error_variance(n, space.to_config(p, 8.0), 36, 8, 10, rng);
  EXPECT_GT(analytical, measured / 300.0);
  EXPECT_LT(analytical, measured * 300.0);
}

TEST(CostModel, MonotoneInWidthAndK) {
  CostModel cost(1024, test_bounds());
  EXPECT_LT(cost.bu_energy_pj(20, 5), cost.bu_energy_pj(30, 5));
  EXPECT_LT(cost.bu_energy_pj(30, 3), cost.bu_energy_pj(30, 9));
  DesignPoint cheap, expensive;
  cheap.stage_widths.assign(10, 12);
  cheap.twiddle_k = 3;
  expensive.stage_widths.assign(10, 39);
  expensive.twiddle_k = 18;
  EXPECT_LT(cost.normalized_power(cheap), cost.normalized_power(expensive));
  // Even the most expensive approximate point beats the FP reference.
  EXPECT_LT(cost.normalized_power(expensive), 1.0);
}

TEST(Pareto, DominationRules) {
  EvaluatedPoint a{{}, 1.0, 1.0}, b{{}, 2.0, 2.0}, c{{}, 0.5, 2.0};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, c));
  EXPECT_FALSE(dominates(c, a));
}

TEST(Pareto, FrontExtraction) {
  std::vector<EvaluatedPoint> pts = {
      {{}, 1.0, 5.0}, {{}, 2.0, 4.0}, {{}, 3.0, 3.0}, {{}, 2.5, 3.5}, {{}, 4.0, 4.0},
  };
  // Non-dominated: (3.0,3.0), (2.5,3.5), (2.0,4.0), (1.0,5.0); (4,4) is
  // dominated by (2,4).
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 4u);
  EXPECT_DOUBLE_EQ(front.front().normalized_power, 3.0);
  EXPECT_DOUBLE_EQ(front.back().normalized_power, 5.0);
}

TEST(Explorer, BestUnderThreshold) {
  const std::size_t n = 512;
  DesignSpace space(n / 2, test_bounds());
  ErrorModel model = ErrorModel::from_weight_stats(n, 36, 8.0);
  CostModel cost(n / 2, test_bounds());
  BayesianExplorer explorer(std::move(space), std::move(model), std::move(cost), 2025);
  BayesOptions opts;
  opts.evaluations = 120;
  const auto all = explorer.explore(opts);
  // Pick a mid-range threshold from the observed errors.
  double max_err = 0;
  for (const auto& e : all) max_err = std::max(max_err, e.error_variance);
  const auto best = best_under_threshold(all, max_err);
  EXPECT_LE(best.error_variance, max_err);
  EXPECT_THROW(best_under_threshold(all, 0.0), std::runtime_error);
}

}  // namespace
}  // namespace flash::dse
