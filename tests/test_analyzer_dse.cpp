// DSE x static analyzer integration: the explorer may never return a design
// point the overflow analyzer rejects. This is the admission contract wired
// into BayesianExplorer::explore (dse/safety.hpp) — unprovable candidates
// are resampled before evaluation, never scored.

#include <gtest/gtest.h>

#include <vector>

#include "dse/bayesopt.hpp"

namespace {

struct Setup {
  flash::dse::DesignSpace space;
  flash::dse::ErrorModel model;
  flash::dse::CostModel cost;
};

Setup table1_setup(std::size_t n, std::size_t nnz, double max_w) {
  flash::dse::DesignSpace space(n / 2, flash::dse::SpaceBounds{10, 39, 2, 18});
  auto model = flash::dse::ErrorModel::from_weight_stats(n, nnz, max_w);
  flash::dse::CostModel cost(space.fft_size(), space.bounds());
  return {space, model, cost};
}

std::size_t count_unprovable(const Setup& s, const std::vector<flash::dse::EvaluatedPoint>& pts) {
  std::size_t unproven = 0;
  for (const auto& e : pts) {
    if (!flash::dse::design_point_proven_safe(s.space, s.model, e.point)) ++unproven;
  }
  return unproven;
}

TEST(AnalyzerDse, BayesianExplorerReturnsOnlyProvablePoints) {
  auto s = table1_setup(512, 18, 7.0);
  flash::dse::BayesianExplorer explorer(s.space, s.model, s.cost, /*seed=*/321);
  flash::dse::BayesOptions opts;
  opts.evaluations = 40;
  opts.initial_random = 10;
  opts.candidate_pool = 40;
  const auto all = explorer.explore(opts);
  ASSERT_EQ(all.size(), 40u);
  EXPECT_EQ(count_unprovable(s, all), 0u);
}

TEST(AnalyzerDse, GatingHoldsAcrossSeedsAndWorkloads) {
  // A cheap sweep over seeds/workloads: the admission rule is seed-independent.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    auto s = table1_setup(1024, 128, 3.0);
    flash::dse::BayesianExplorer explorer(s.space, s.model, s.cost, seed);
    flash::dse::BayesOptions opts;
    opts.evaluations = 60;
    opts.initial_random = 16;
    EXPECT_EQ(count_unprovable(s, explorer.explore(opts)), 0u) << "seed=" << seed;
  }
}

TEST(AnalyzerDse, SafetyCacheMatchesDirectAnalysis) {
  auto s = table1_setup(512, 18, 7.0);
  flash::dse::SafetyCache cache(s.space, s.model);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 25; ++i) {
    const auto p = s.space.random(rng);
    const bool direct = flash::dse::design_point_proven_safe(s.space, s.model, p);
    EXPECT_EQ(cache.proven_safe(p), direct);
    EXPECT_EQ(cache.proven_safe(p), direct);  // memoized second hit
  }
}

TEST(AnalyzerDse, ExplorerThrowsWhenNothingIsProvable) {
  // Inputs so large that even all-max widths cannot hold the growth: the
  // explorer must refuse loudly rather than return unverifiable fronts.
  flash::dse::DesignSpace space(256, flash::dse::SpaceBounds{10, 16, 2, 18});
  flash::dse::ErrorModel model(256, 1e6, 3000.0, 2500.0);
  flash::dse::CostModel cost(space.fft_size(), space.bounds());

  flash::dse::BayesianExplorer bayes(space, model, cost, /*seed=*/9);
  flash::dse::BayesOptions bayes_opts;
  bayes_opts.evaluations = 10;
  EXPECT_THROW(bayes.explore(bayes_opts), std::runtime_error);
}

}  // namespace
