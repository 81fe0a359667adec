// Figure 11(a) reproduction: multiplication count per polynomial
// multiplication at various weight sparsity levels, for three strategies:
//
//   * traditional butterfly dataflow (dense FFT of the weight polynomial);
//   * FLASH's sparse skip/merge dataflow;
//   * direct computation in the coefficient domain (nnz x N integer mults,
//     no transforms at all).
//
// As in the paper, counts are normalized to a single PolyMul of one layer:
// activation forward transforms and the inverse transform are amortized over
// the output channels that share them (out_c = 64 here), which is why the
// FFT-based strategies beat direct computation even at high sparsity.
//
// A second table measures what the counts predict on the served path: the
// kApproxFft weight transform (PolyMulEngine::transform_plain_batch at
// N = 4096, t = 2^20, high_accuracy_approx_config, one 8-polynomial lane
// group) per distinct ResNet-18 conv unit, dense (every butterfly) against
// skip mode on the unit's plan (live butterflies only), in µs per
// polynomial, with the spectra checked bit-identical.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <set>
#include <tuple>

#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "encoding/encoder.hpp"
#include "protocol/conv_geometry.hpp"
#include "sparsefft/planner.hpp"
#include "tensor/resnet.hpp"

namespace {

using namespace flash;

/// Best-of-5 wall time of `reps` calls of body, in µs per call.
template <typename Body>
double best_us(int reps, const Body& body) {
  double best = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::micro>(t1 - t0).count() / reps);
  }
  return best;
}

/// The served weight transform per distinct ResNet-18 conv unit, dense vs
/// skip mode. Returns false if any skip-mode spectrum differs from dense.
bool measure_served_weight_transforms() {
  constexpr std::size_t kGroup = 8;
  const auto params = bfv::BfvParams::create(4096, 20, 49);
  const bfv::BfvContext ctx(params);
  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kApproxFft,
                                  core::high_accuracy_approx_config(params.n, params.t));
  std::printf("\nserved kApproxFft weight transform per ResNet-18 conv unit (N=%zu, 48-bit/k=20,\n"
              "%zu-polynomial lane groups), us per polynomial:\n",
              params.n, kGroup);
  std::printf("  %-20s %-8s %-6s %5s %6s %6s %6s %8s %8s %7s\n", "layer", "patch", "kernel",
              "live", "full", "mul", "copy", "dense", "live", "speedup");
  std::mt19937_64 rng(11);
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t, std::size_t>> seen;
  bool identical = true;
  double dense_sum = 0, live_sum = 0;
  for (const tensor::LayerConfig& layer : tensor::resnet18_conv_layers()) {
    tensor::Tensor4 w(kGroup, layer.in_c, layer.kernel, layer.kernel);
    for (auto& v : w.data()) v = static_cast<tensor::i64>(rng() % 15) - 7;
    for (const protocol::ConvUnit& u : protocol::enumerate_conv_units(
             params.n, layer.in_c, layer.in_h, layer.in_w, w, layer.stride, layer.pad)) {
      const std::size_t kh = u.weights.kernel_h(), kw = u.weights.kernel_w();
      if (!seen.insert({layer.in_c, u.patch_h, u.patch_w, kh, kw}).second) continue;
      const encoding::ConvEncoder enc(params.n, layer.in_c, u.patch_h, u.patch_w, kh, kw);
      const sparsefft::SparseFftPlan plan(params.n / 2,
                                          encoding::folded_weight_pattern(enc.geometry()));
      std::vector<bfv::Plaintext> pts(kGroup, ctx.make_plaintext());
      for (std::size_t b = 0; b < kGroup; ++b) {
        const std::vector<tensor::i64> coeffs = enc.encode_weight(u.weights, b, 0);
        for (std::size_t i = 0; i < params.n; ++i) {
          pts[b].poly[i] = hemath::from_signed(coeffs[i], params.t);
        }
      }
      const fft::ButterflySchedule& live = plan.schedule();
      const auto dense_spec = engine.transform_plain_batch(pts);
      const auto live_spec = engine.transform_plain_batch(pts, &live);
      for (std::size_t b = 0; b < kGroup; ++b) {
        identical = identical && dense_spec[b].fft == live_spec[b].fft;
      }
      const double dense_us =
          best_us(4, [&] { (void)engine.transform_plain_batch(pts); }) / kGroup;
      const double live_us =
          best_us(4, [&] { (void)engine.transform_plain_batch(pts, &live); }) / kGroup;
      std::size_t full = 0, mul = 0, copy = 0;
      for (int s = 0; s < live.stages(); ++s) {
        for (const fft::ButterflyOp& op : live.stage(s)) {
          full += op.kind == fft::OpKind::kFull;
          mul += op.kind == fft::OpKind::kMulOnly;
          copy += op.kind == fft::OpKind::kCopy;
        }
      }
      std::printf("  %-20s %3zux%-4zu %zux%-4zu %5zu %6zu %6zu %6zu %8.1f %8.1f %6.1fx\n",
                  layer.name.c_str(), u.patch_h, u.patch_w, kh, kw, live.live_inputs().size(), full,
                  mul, copy, dense_us, live_us, dense_us / live_us);
      dense_sum += dense_us;
      live_sum += live_us;
    }
  }
  std::printf("  %zu distinct units; mean %.1f us dense, %.1f us live; spectra %s\n", seen.size(),
              dense_sum / static_cast<double>(seen.size()),
              live_sum / static_cast<double>(seen.size()),
              identical ? "bit-identical" : "DIFFER");
  return identical;
}

}  // namespace

int main() {
  using namespace flash::sparsefft;

  std::printf("=== Fig. 11(a): multiplication count vs weight sparsity (per PolyMul) ===\n\n");

  const std::size_t n = 4096;
  const std::size_t m = n / 2;
  const std::size_t out_channels = 64;  // amortization factor for shared transforms
  const PlanCost dense = SparseFftPlan::dense_cost(m);

  // Real multiplications of the shared (per-output-channel amortized) work:
  // 2 ciphertext forward FFTs + 2 inverse FFTs per PolyMul result, amortized,
  // plus the point-wise products (4 real mults per complex product).
  const double shared = (4.0 * static_cast<double>(dense.complex_mults) * 4.0) /
                            static_cast<double>(out_channels) +
                        4.0 * static_cast<double>(m);

  std::printf("%-12s %-10s %16s %16s %16s\n", "sparsity", "nnz", "direct coeff", "dense FFT",
              "sparse FFT");
  // Sweep sparsity by varying channels-per-polynomial and patch size
  // (stripe = patch area): 16x16 patches for the sparse regime, 8x8 for the
  // dense end, matching how channel packing trades patch size for density.
  struct Point {
    std::size_t stripe, width, channels;
  };
  const Point sweep[] = {
      {256, 16, 1}, {256, 16, 2}, {256, 16, 4}, {256, 16, 8},
      {64, 8, 8},   {64, 8, 16},  {64, 8, 24},  {64, 8, 31},
  };
  for (const Point& pt : sweep) {
    std::vector<std::size_t> pos;
    for (std::size_t c = 0; c < pt.channels; ++c) {
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) pos.push_back((c * pt.stripe + i * pt.width + j) % m);
      }
    }
    const SparsityPattern pattern(m, std::move(pos));
    const std::size_t nnz = pattern.weight();
    const double sparsity = 1.0 - static_cast<double>(nnz) / static_cast<double>(n);
    const SparseFftPlan plan(m, pattern);

    const double direct = static_cast<double>(nnz) * static_cast<double>(n);
    const double fft_dense = 4.0 * static_cast<double>(dense.complex_mults) + shared;
    const double fft_sparse = 4.0 * static_cast<double>(plan.cost().merged_mults) + shared;
    std::printf("%-12.4f %-10zu %16.0f %16.0f %16.0f\n", sparsity, nnz, direct, fft_dense,
                fft_sparse);
  }

  std::printf("\nshared per-PolyMul cost (amortized act FFT + inverse + point-wise): %.0f\n", shared);
  std::printf("paper shape: sparse dataflow < dense dataflow everywhere, and < direct\n");
  std::printf("coefficient-domain computation even at extreme sparsity (thanks to the\n");
  std::printf("activation-transform amortization across %zu output channels).\n", out_channels);
  return measure_served_weight_transforms() ? 0 : 1;
}
