// The sparse butterfly dataflow, step by step (paper Section IV-B):
// encode a conv layer's weights Cheetah-style, inspect the sparsity pattern,
// plan the skip/merge dataflow, execute it, and verify it against the dense
// FFT while counting the multiplications actually issued.
//
//   $ ./examples/sparse_dataflow
#include <cstdio>
#include <random>

#include "encoding/encoder.hpp"
#include "fft/complex_fft.hpp"
#include "sparsefft/executor.hpp"
#include "tensor/quant.hpp"

int main() {
  using namespace flash;

  // A ResNet-style tile: 8 channels of a 16x16 (power-of-two padded) patch,
  // 3x3 kernel, in a 4096-degree polynomial.
  const std::size_t n = 4096;
  encoding::ConvEncoder enc(n, 8, 16, 16, 3);
  const auto& geo = enc.geometry();
  std::printf("geometry: %zu channels/poly, %zu-degree poly, k=%zu\n", geo.channels_per_poly(), n,
              geo.k);

  const sparsefft::SparsityPattern pattern = enc.weight_pattern();
  std::printf("weight pattern: %zu nonzeros, %.2f%% sparse\n", pattern.weight(),
              100.0 * pattern.sparsity());

  const sparsefft::SparsityPattern br = pattern.bit_reversed();
  const char* shape = "mixed";
  switch (br.classify()) {
    case sparsefft::PatternShape::kContiguous: shape = "contiguous (skipping)"; break;
    case sparsefft::PatternShape::kScattered: shape = "scattered (merging)"; break;
    case sparsefft::PatternShape::kEmpty: shape = "empty"; break;
    case sparsefft::PatternShape::kMixed: shape = "mixed (skip + merge)"; break;
  }
  std::printf("after bit-reverse: %s\n", shape);

  // Fold onto the N/2-point FFT input and plan (the plan the served
  // kApproxFft weight transform runs for this geometry).
  const std::size_t m = n / 2;
  const sparsefft::SparsityPattern fold_pattern = encoding::folded_weight_pattern(geo);
  const sparsefft::SparseFftPlan plan(m, fold_pattern);
  const sparsefft::PlanCost dense = sparsefft::SparseFftPlan::dense_cost(m);

  std::printf("\nper-stage schedule (ops scheduled / dense butterflies per stage = %zu):\n", m / 2);
  for (int s = 0; s < plan.stages(); ++s) {
    std::size_t full = 0, mul = 0, copy = 0;
    for (const auto& op : plan.stage(s)) {
      full += op.kind == sparsefft::OpKind::kFull;
      mul += op.kind == sparsefft::OpKind::kMulOnly;
      copy += op.kind == sparsefft::OpKind::kCopy;
    }
    std::printf("  stage %2d: %5zu full, %5zu mul-only (merge), %5zu copy (skip)\n", s + 1, full,
                mul, copy);
  }

  const auto& cost = plan.cost();
  std::printf("\nmultiplications: %llu scheduled (%llu merged) of %llu dense -> %.1f%% reduction\n",
              static_cast<unsigned long long>(cost.complex_mults),
              static_cast<unsigned long long>(cost.merged_mults),
              static_cast<unsigned long long>(dense.merged_mults),
              100.0 * (1.0 - static_cast<double>(cost.merged_mults) /
                                 static_cast<double>(dense.merged_mults)));

  // Execute the sparse plan on actual weight values and verify vs dense FFT.
  std::mt19937_64 rng(3);
  std::vector<fft::cplx> input(m, {0.0, 0.0});
  for (std::size_t p : fold_pattern.nonzeros()) {
    input[p] = {static_cast<double>(static_cast<int>(rng() % 15) - 7), 0.0};
  }
  const auto sparse_out = sparsefft::execute(plan, input);
  auto dense_out = input;
  fft::FftPlan(m, +1).forward(dense_out);
  double max_diff = 0;
  for (std::size_t i = 0; i < m; ++i) max_diff = std::max(max_diff, std::abs(sparse_out[i] - dense_out[i]));
  std::printf("sparse execution vs dense FFT: max |diff| = %.3e\n", max_diff);
  return max_diff < 1e-9 ? 0 : 1;
}
