// Gaussian-process surrogate and the Bayesian DSE explorer.
#include <gtest/gtest.h>

#include <random>

#include "dse/bayesopt.hpp"

namespace flash::dse {
namespace {

SpaceBounds test_bounds() { return SpaceBounds{10, 39, 2, 18}; }

TEST(GaussianProcess, InterpolatesTrainingData) {
  GaussianProcess gp(0.5, 1.0, 1e-8);
  std::vector<std::vector<double>> x = {{0.0}, {0.3}, {0.7}, {1.0}};
  std::vector<double> y = {1.0, 2.0, -1.0, 0.5};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto pred = gp.predict(x[i]);
    EXPECT_NEAR(pred.mean, y[i], 1e-3) << i;
    EXPECT_LT(pred.variance, 1e-3) << i;
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(0.2, 1.0, 1e-6);
  gp.fit({{0.0}, {0.1}}, {0.0, 0.1});
  const double var_near = gp.predict({0.05}).variance;
  const double var_far = gp.predict({0.9}).variance;
  EXPECT_GT(var_far, 10.0 * var_near);
}

TEST(GaussianProcess, SmoothPredictionBetweenPoints) {
  GaussianProcess gp(0.4, 1.0, 1e-6);
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
  const double mid = gp.predict({0.5}).mean;
  EXPECT_GT(mid, 0.1);
  EXPECT_LT(mid, 0.9);
}

TEST(GaussianProcess, RejectsBadInput) {
  GaussianProcess gp(0.5, 1.0, 1e-6);
  EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(gp.predict({0.0}), std::logic_error);
}

TEST(BayesianExplorer, ProducesBudgetedEvaluationsAndFront) {
  const std::size_t n = 512;
  DesignSpace space(n / 2, test_bounds());
  ErrorModel model = ErrorModel::from_weight_stats(n, 36, 8.0);
  CostModel cost(n / 2, test_bounds());
  BayesianExplorer explorer(std::move(space), std::move(model), std::move(cost), 777);
  BayesOptions opts;
  opts.evaluations = 120;
  const auto all = explorer.explore(opts);
  EXPECT_EQ(all.size(), 120u);
  const auto front = pareto_front(all);
  EXPECT_GE(front.size(), 3u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LE(front[i].error_variance, front[i - 1].error_variance);
  }
}

TEST(BayesianExplorer, EvaluatesFullPrecisionCornerFirst) {
  // No random initial design at all: the corner alone seeds the surrogate,
  // and a threshold at the corner's error always has a feasible point.
  const std::size_t n = 512;
  const DesignSpace space(n / 2, test_bounds());
  BayesianExplorer explorer(space, ErrorModel::from_weight_stats(n, 36, 8.0),
                            CostModel(n / 2, test_bounds()), 777);
  BayesOptions opts;
  opts.evaluations = 5;
  opts.initial_random = 0;
  const auto all = explorer.explore(opts);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all.front().point, space.full_precision());
  const EvaluatedPoint best = best_under_threshold(all, all.front().error_variance);
  EXPECT_EQ(best.point, space.full_precision());
}

double best_power(const std::vector<EvaluatedPoint>& points, double threshold) {
  double best = 1e300;
  for (const auto& e : points) {
    if (e.error_variance <= threshold) best = std::min(best, e.normalized_power);
  }
  return best;
}

TEST(BayesianExplorer, BeatsSafeRandomSearchAcrossSeeds) {
  // At equal budget and admission rule, BO's cheapest feasible point must
  // beat uniform random search on most (seed, T_err) cases.
  const std::size_t n = 512;
  const SpaceBounds bounds = test_bounds();
  const DesignSpace space(n / 2, bounds);
  const ErrorModel model = ErrorModel::from_weight_stats(n, 36, 8.0);
  const CostModel cost(n / 2, bounds);
  const std::size_t budget = 80;

  int cases = 0, wins = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    BayesianExplorer bo(space, model, cost, seed);
    BayesOptions opts;
    opts.evaluations = budget;
    const auto bo_points = bo.explore(opts);
    std::mt19937_64 rng(seed);
    const auto random_points = safe_random_search(space, model, cost, budget, rng);
    ASSERT_EQ(random_points.size(), budget);
    EXPECT_EQ(random_points.front().point, space.full_precision());
    for (const double threshold : {1e-3, 1e-6, 1e-9}) {
      const double bo_best = best_power(bo_points, threshold);
      const double random_best = best_power(random_points, threshold);
      ASSERT_LT(bo_best, 1e300) << "seed " << seed << " T_err " << threshold;
      ++cases;
      if (bo_best < random_best) ++wins;
    }
  }
  EXPECT_GE(wins, 20) << wins << " of " << cases;
}

}  // namespace
}  // namespace flash::dse
