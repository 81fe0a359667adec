// Sparse butterfly dataflow: pattern classification, plan cost accounting,
// exactness of sparse execution vs. dense FFT, and the paper's headline
// multiplication-reduction examples (4.1 and 4.2).
#include <gtest/gtest.h>

#include <random>

#include "fft/complex_fft.hpp"
#include "sparsefft/executor.hpp"
#include "sparsefft/pattern.hpp"
#include "sparsefft/planner.hpp"

namespace flash::sparsefft {
namespace {

using fft::cplx;

std::vector<cplx> sparse_signal(const SparsityPattern& pattern, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<cplx> a(pattern.size(), cplx{0, 0});
  for (std::size_t p : pattern.nonzeros()) a[p] = {dist(rng), dist(rng)};
  return a;
}

void expect_matches_dense(const SparsityPattern& pattern, std::uint64_t seed) {
  const std::size_t m = pattern.size();
  SparseFftPlan plan(m, pattern);
  std::mt19937_64 rng(seed);
  const auto input = sparse_signal(pattern, rng);
  const auto sparse_out = execute(plan, input);
  auto dense = input;
  fft::FftPlan(m, +1).forward(dense);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(sparse_out[i].real(), dense[i].real(), 1e-9) << i;
    EXPECT_NEAR(sparse_out[i].imag(), dense[i].imag(), 1e-9) << i;
  }
}

TEST(Pattern, Classification) {
  EXPECT_EQ(SparsityPattern(16, {}).classify(), PatternShape::kEmpty);
  EXPECT_EQ(SparsityPattern(16, {0, 1, 2, 3}).classify(), PatternShape::kContiguous);
  EXPECT_EQ(SparsityPattern(16, {6}).classify(), PatternShape::kScattered);
  EXPECT_EQ(SparsityPattern(16, {0, 4, 8, 12}).classify(), PatternShape::kScattered);
  EXPECT_EQ(SparsityPattern(16, {0, 1, 7}).classify(), PatternShape::kMixed);
}

TEST(Pattern, BitReversalMapsStridesToPrefixes) {
  // Valid data at multiples of 4 in a 16-point network becomes the prefix
  // after bit-reversal (the paper's "skipping" precondition).
  const SparsityPattern p(16, {0, 4, 8, 12});
  const SparsityPattern br = p.bit_reversed();
  EXPECT_EQ(br.nonzeros(), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(br.classify(), PatternShape::kContiguous);
}

TEST(Pattern, SparsityAndDedup) {
  const SparsityPattern p(8, {1, 1, 3});
  EXPECT_EQ(p.weight(), 2u);
  EXPECT_DOUBLE_EQ(p.sparsity(), 0.75);
  EXPECT_THROW(SparsityPattern(8, {8}), std::out_of_range);
}

TEST(Planner, DenseCostFormula) {
  const PlanCost dense = SparseFftPlan::dense_cost(16);
  // (M/2) log2 M = 32 butterflies; twiddle indices 0 and 4 are trivial.
  EXPECT_EQ(dense.complex_mults + dense.trivial_mults, 32u);
  EXPECT_EQ(dense.complex_adds, 64u);
  // Stage s has M/2 butterflies; trivial ones: j=0 blocks every stage
  // (8+4+2+1 = 15) plus j*stride = M/4 at stages >= 2 (4+2+1 = 7).
  EXPECT_EQ(dense.trivial_mults, 22u);
  EXPECT_EQ(dense.complex_mults, 10u);
}

TEST(Planner, FullyDensePatternCostsDense) {
  std::vector<std::size_t> all(64);
  for (std::size_t i = 0; i < 64; ++i) all[i] = i;
  SparseFftPlan plan(64, SparsityPattern(64, all));
  const PlanCost dense = SparseFftPlan::dense_cost(64);
  EXPECT_EQ(plan.cost().complex_mults, dense.complex_mults);
  EXPECT_EQ(plan.cost().complex_adds, dense.complex_adds);
  EXPECT_EQ(plan.cost().copies, 0u);
}

TEST(Planner, Example41SkippingReduction) {
  // Paper Example 4.1: N=16, valid data contiguous at m_br[0..3] — i.e. the
  // *standard-order* nonzeros are multiples of 4. Classical dataflow uses 32
  // butterfly multiplications; skipping reduces operations by 87.5%.
  const SparsityPattern p(16, {0, 4, 8, 12});
  SparseFftPlan plan(16, p);
  const PlanCost c = plan.cost();
  // Only the 4-point sub-network executes (2 + 2 butterflies); everything
  // after is pure duplication (4 copies at stage 3, 8 at stage 4).
  EXPECT_EQ(c.complex_mults + c.trivial_mults, 4u);
  EXPECT_EQ(c.copies, 12u);
  const PlanCost dense = SparseFftPlan::dense_cost(16);
  const double reduction =
      1.0 - static_cast<double>(c.complex_mults + c.trivial_mults) /
                static_cast<double>(dense.complex_mults + dense.trivial_mults);
  EXPECT_DOUBLE_EQ(reduction, 0.875);  // the paper's 87.5% for Example 4.1
  expect_matches_dense(p, 1001);
}

TEST(Planner, Example42MergingSingleElement) {
  // Paper Example 4.2: a single valid element. (M/2)log2 M butterfly mults
  // collapse to ~M scalar multiplications (mult-only chains + duplication).
  const std::size_t m = 16;
  // One nonzero whose bit-reversed position is 6 (= m_br[6] in the paper):
  // bit_reverse(6) = 6 for 4 bits? 6 = 0110 -> 0110 = 6. Use position 6.
  const SparsityPattern p(m, {6});
  SparseFftPlan plan(m, p);
  const PlanCost c = plan.cost();
  // Executed multiplications (incl. trivial) must be <= M - 1 = 15.
  EXPECT_LE(c.complex_mults + c.trivial_mults, m - 1);
  EXPECT_GT(c.copies, 0u);
  expect_matches_dense(p, 1002);
}

TEST(Planner, MergingChainsAreMulOnly) {
  const std::size_t m = 32;
  const SparsityPattern p(m, {7});
  SparseFftPlan plan(m, p);
  // Stage 1..log2(m): the single active element alone in its butterfly pair
  // produces kMulOnly (if it is the bottom input) or kCopy (top input) ops.
  for (int s = 0; s < plan.stages(); ++s) {
    for (const auto& op : plan.stage(s)) {
      EXPECT_TRUE(op.kind != OpKind::kFull) << "stage " << s;
    }
  }
  expect_matches_dense(p, 1003);
}

class SparseRandomPattern : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SparseRandomPattern, ExecutionMatchesDense) {
  const auto [m, nnz] = GetParam();
  std::mt19937_64 rng(m * 31 + nnz);
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < nnz; ++i) pos.push_back(rng() % m);
  const SparsityPattern p(m, std::move(pos));
  expect_matches_dense(p, m + nnz);
}

TEST_P(SparseRandomPattern, CostNeverExceedsDense) {
  const auto [m, nnz] = GetParam();
  std::mt19937_64 rng(m * 37 + nnz);
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < nnz; ++i) pos.push_back(rng() % m);
  SparseFftPlan plan(m, SparsityPattern(m, std::move(pos)));
  const PlanCost dense = SparseFftPlan::dense_cost(m);
  EXPECT_LE(plan.cost().complex_mults, dense.complex_mults);
  EXPECT_LE(plan.cost().complex_adds, dense.complex_adds);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SparseRandomPattern,
    ::testing::Combine(::testing::Values(std::size_t{16}, std::size_t{64}, std::size_t{512}),
                       ::testing::Values(std::size_t{1}, std::size_t{5}, std::size_t{40})));

TEST(Planner, CheetahLikePattern3x3Reduction) {
  // ResNet-like encoded 3x3 weights: 9 taps per H*W=256 stripe (power-of-two
  // padded patch) in a 2048-point transform, 8 channels -> 72 nonzeros.
  const std::size_t m = 2048;
  std::vector<std::size_t> pos;
  for (std::size_t ch = 0; ch < 8; ++ch) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) pos.push_back(ch * 256 + i * 16 + j);
    }
  }
  const SparsityPattern p(m, std::move(pos));
  SparseFftPlan plan(m, p);
  const PlanCost dense = SparseFftPlan::dense_cost(m);
  const double frac = static_cast<double>(plan.cost().merged_mults) /
                      static_cast<double>(dense.merged_mults);
  // Power-of-two strides make skipping effective: >75% reduction here.
  EXPECT_LT(frac, 0.25);
  expect_matches_dense(p, 2025);
}

TEST(Planner, CheetahLikePattern1x1Reduction) {
  // 1x1 convolution weights (the majority of ResNet-50 layers): one tap per
  // channel stripe at multiples of the power-of-two patch area. These become
  // a contiguous prefix after bit-reversal — pure "skipping" — and drive the
  // paper's >86% network-average multiplication reduction.
  const std::size_t m = 2048;
  std::vector<std::size_t> pos;
  for (std::size_t ch = 0; ch < 16; ++ch) pos.push_back(ch * 64);
  const SparsityPattern p(m, std::move(pos));
  SparseFftPlan plan(m, p);
  const PlanCost dense = SparseFftPlan::dense_cost(m);
  const double frac = static_cast<double>(plan.cost().merged_mults) /
                      static_cast<double>(dense.merged_mults);
  EXPECT_LT(frac, 0.02);
  expect_matches_dense(p, 2026);
}

TEST(Planner, MergedNeverExceedsPerStage) {
  std::mt19937_64 rng(515);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 256;
    std::vector<std::size_t> pos;
    const std::size_t nnz = 1 + rng() % 64;
    for (std::size_t i = 0; i < nnz; ++i) pos.push_back(rng() % m);
    SparseFftPlan plan(m, SparsityPattern(m, std::move(pos)));
    // Merged accounting folds chains; it can pay at most one extra
    // materialization per output beyond the per-stage count.
    EXPECT_LE(plan.cost().merged_mults, plan.cost().complex_mults + m);
  }
}

TEST(Planner, MergedSingleElementCostsAboutM) {
  // Example 4.2 generalized: one valid element -> ~M multiplications total
  // (one per output position, minus trivial/identity chains).
  const std::size_t m = 2048;
  SparseFftPlan plan(m, SparsityPattern(m, {7}));
  EXPECT_LE(plan.cost().merged_mults, m);
  EXPECT_GT(plan.cost().merged_mults, 0u);
  const PlanCost dense = SparseFftPlan::dense_cost(m);
  // (1/2) M log2 M butterflies -> ~M mults: ~4x fewer at M = 2048.
  EXPECT_LT(static_cast<double>(plan.cost().merged_mults) /
                static_cast<double>(dense.merged_mults),
            0.26);
}

TEST(Executor, InputSizeMismatchThrows) {
  SparseFftPlan plan(16, SparsityPattern(16, {0}));
  std::vector<cplx> wrong(8);
  EXPECT_THROW(execute(plan, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace flash::sparsefft
