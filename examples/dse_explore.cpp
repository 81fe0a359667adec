// Design-space exploration for the approximate FFT (paper Section IV-C2 and
// Fig. 11(b)(c)): Bayesian optimization over per-stage bit-widths and the
// twiddle quantization level k for one ResNet-50 layer, print the Pareto
// front, and validate the analytical error model against the bit-accurate
// simulator at the chosen operating point.
//
//   $ ./examples/dse_explore [evaluations]
#include <cstdio>
#include <cstdlib>

#include "core/flash_accelerator.hpp"
#include "tensor/resnet.hpp"

int main(int argc, char** argv) {
  using namespace flash;

  const std::size_t evaluations = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 400;
  const bfv::BfvParams params = bfv::BfvParams::create(4096, 20, 49);
  core::FlashAccelerator flash_acc(params);

  // Layer 28 of ResNet-50 (a mid-network 3x3 bottleneck conv).
  const auto layers = tensor::resnet50_conv_layers();
  const tensor::LayerConfig& layer = layers[28];
  std::printf("exploring layer %s (%zux%zux%zu -> %zu, k=%zu), %zu evaluations\n",
              layer.name.c_str(), layer.in_c, layer.in_h, layer.in_w, layer.out_c, layer.kernel,
              evaluations);

  dse::BayesOptions opts;
  opts.evaluations = evaluations;
  const auto points = flash_acc.explore_layer(layer, opts);
  const auto front = dse::pareto_front(points);

  std::printf("\n%-10s %-14s %-12s %s\n", "power", "error var", "twiddle k", "stage widths");
  for (const auto& p : front) {
    std::printf("%-10.4f %-14.3e %-12d", p.normalized_power, p.error_variance, p.point.twiddle_k);
    for (int w : p.point.stage_widths) std::printf(" %d", w);
    std::printf("\n");
  }

  // Validate the cheapest point against the bit-accurate simulator.
  const encoding::LayerTiling tiling = encoding::plan_layer(layer, params.n);
  dse::DesignSpace space(params.n / 2, dse::SpaceBounds{});
  std::mt19937_64 rng(1);
  const auto& best = front.front();
  const double measured = dse::measured_error_variance(
      params.n, space.to_config(best.point, 8.0), tiling.weight_nnz, 8, 4, rng);
  std::printf("\ncheapest front point: predicted error %.3e, bit-accurate measured %.3e\n",
              best.error_variance, measured);
  std::printf("(the analytical model is used inside the search; the simulator is ground truth)\n");
  return 0;
}
