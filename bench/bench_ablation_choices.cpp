// Ablations of FLASH's design choices beyond the paper's headline two
// (DESIGN.md calls these out): butterfly radix, rounding mode of the
// approximate datapath, power-of-two patch padding, and the merged vs
// per-stage sparse accounting. The radix knob is an exact operation count
// (sparsefft::SparseFftPlan::dense_cost vs accel::radix4_dense_cost); the
// others run the functional simulators.
#include <cstdio>
#include <random>

#include "accel/workload.hpp"
#include "encoding/tiling.hpp"
#include "fft/fxp_fft.hpp"
#include "sparsefft/planner.hpp"
#include "tensor/resnet.hpp"

namespace {

using namespace flash;

void radix_ablation() {
  std::printf("--- butterfly radix (dense transform, non-trivial complex mults) ---\n");
  std::printf("  %-8s %10s %10s %8s\n", "M", "radix-2", "radix-4", "ratio");
  for (std::size_t m : {std::size_t{512}, std::size_t{2048}, std::size_t{8192}}) {
    const auto r2 = sparsefft::SparseFftPlan::dense_cost(m);
    const auto r4 = accel::radix4_dense_cost(m);
    std::printf("  %-8zu %10llu %10llu %8.3f\n", m,
                static_cast<unsigned long long>(r2.complex_mults),
                static_cast<unsigned long long>(r4.complex_mults),
                static_cast<double>(r4.complex_mults) / static_cast<double>(r2.complex_mults));
  }
  std::printf("  radix-4 saves ~25%% of multiplications but needs a 4-input BU;\n");
  std::printf("  FLASH's skip/merge dataflow operates on radix-2 pairs, which is why the\n");
  std::printf("  paper keeps radix-2 BUs (sparse chains would fragment radix-4 blocks).\n\n");
}

void rounding_ablation() {
  std::printf("--- rounding mode of the approximate FXP datapath ---\n");
  const std::size_t m = 1024;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> w(-8, 8);
  std::vector<fft::cplx> input(m, {0.0, 0.0});
  for (int i = 0; i < 72; ++i) input[rng() % m] = {static_cast<double>(w(rng)), 0.0};
  fft::FftPlan exact(m, +1);
  auto ref = input;
  exact.forward(ref);

  std::printf("  %-10s %14s %14s\n", "frac bits", "truncate", "round-nearest");
  for (int frac : {8, 12, 16, 20}) {
    fft::FxpFftConfig nearest = fft::FxpFftConfig::uniform(m, frac, 48, 16);
    nearest.twiddle_min_exp = -(frac + 8);
    fft::FxpFftConfig trunc = nearest;
    trunc.rounding = fft::RoundingMode::kTruncate;
    const double e_near = fft::relative_spectrum_rmse(fft::FxpFft(m, nearest).forward(input), ref);
    const double e_trunc = fft::relative_spectrum_rmse(fft::FxpFft(m, trunc).forward(input), ref);
    std::printf("  %-10d %14.3e %14.3e\n", frac, e_trunc, e_near);
  }
  std::printf("  round-to-nearest buys ~1-2 bits of accuracy over truncation at the cost\n");
  std::printf("  of one half-ulp adder per rounding site.\n\n");
}

void padding_ablation() {
  std::printf("--- power-of-two patch padding (sparse fraction, merged accounting) ---\n");
  const std::size_t n = 4096, m = n / 2;
  auto fraction = [&](std::size_t h, std::size_t w, std::size_t k, std::size_t channels) {
    std::vector<std::size_t> pos;
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) pos.push_back((c * h * w + i * w + j) % m);
      }
    }
    sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, std::move(pos)));
    return static_cast<double>(plan.cost().merged_mults) /
           static_cast<double>(sparsefft::SparseFftPlan::dense_cost(m).merged_mults);
  };
  std::printf("  %-26s %10s\n", "geometry", "mult frac");
  std::printf("  %-26s %10.3f\n", "58x58 raw, k=3, 1ch", fraction(58, 58, 3, 1));
  std::printf("  %-26s %10.3f\n", "64x64 padded, k=3, 1ch", fraction(64, 64, 3, 1));
  std::printf("  %-26s %10.3f\n", "14x14 raw, k=1, 16ch", fraction(14, 14, 1, 16));
  std::printf("  %-26s %10.3f\n", "16x16 padded, k=1, 16ch", fraction(16, 16, 1, 16));
  std::printf("  padding wastes polynomial capacity but aligns channel stripes with\n");
  std::printf("  power-of-two strides, which is what makes skipping effective (Fig. 8a).\n\n");
}

void accounting_ablation() {
  std::printf("--- per-stage vs merged sparse accounting (ResNet-50 network average) ---\n");
  const std::size_t n = 4096;
  double per_stage = 0, merged = 0;
  std::uint64_t transforms = 0;
  for (const auto& layer : tensor::resnet50_conv_layers()) {
    const encoding::LayerTiling t = encoding::plan_layer(layer, n);
    // Recompute the per-stage fraction for the same pattern.
    std::vector<std::size_t> pos;
    for (std::size_t c = 0; c < t.channels_per_poly; ++c) {
      for (std::size_t i = 0; i < t.sub_k; ++i) {
        for (std::size_t j = 0; j < t.sub_k; ++j) {
          pos.push_back((c * t.patch_h * t.patch_w + i * t.patch_w + j) % (n / 2));
        }
      }
    }
    sparsefft::SparseFftPlan plan(n / 2, sparsefft::SparsityPattern(n / 2, std::move(pos)));
    const auto dense = sparsefft::SparseFftPlan::dense_cost(n / 2);
    per_stage += static_cast<double>(plan.cost().complex_mults) /
                 static_cast<double>(dense.complex_mults) *
                 static_cast<double>(t.weight_transforms);
    merged += t.weight_mult_fraction * static_cast<double>(t.weight_transforms);
    transforms += t.weight_transforms;
  }
  std::printf("  per-stage (skip only):      %.4f\n", per_stage / static_cast<double>(transforms));
  std::printf("  merged (skip + merge):      %.4f\n", merged / static_cast<double>(transforms));
  std::printf("  with power-of-two padding, skipping alone captures nearly all of the\n");
  std::printf("  network-level reduction; merging (Example 4.2's cumulative twiddles)\n");
  std::printf("  matters for non-aligned geometries (58x58/k3: 0.46 -> 0.39 above).\n");
}

}  // namespace

int main() {
  std::printf("=== design-choice ablations (DESIGN.md section 6) ===\n\n");
  radix_ablation();
  rounding_ablation();
  padding_ablation();
  accounting_ablation();
  return 0;
}
