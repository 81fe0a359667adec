#include "encoding/tiling.hpp"

#include <algorithm>
#include <stdexcept>

#include "sparsefft/planner.hpp"

namespace flash::encoding {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

double sparse_weight_fraction(const ConvGeometry& geometry) {
  const std::size_t m = geometry.n / 2;
  const sparsefft::SparseFftPlan plan(m, folded_weight_pattern(geometry));
  const sparsefft::PlanCost dense = sparsefft::SparseFftPlan::dense_cost(m);
  if (dense.merged_mults == 0) return 1.0;
  return static_cast<double>(plan.cost().merged_mults) / static_cast<double>(dense.merged_mults);
}

LayerTiling plan_layer(const tensor::LayerConfig& layer, std::size_t n) {
  LayerTiling t;
  t.n = n;

  const std::size_t s = layer.stride;
  const std::size_t padded_h = layer.in_h + 2 * layer.pad;
  const std::size_t padded_w = layer.in_w + 2 * layer.pad;

  // Stride decomposition into stride-1 sub-convolutions over phase-subsampled
  // inputs. Only min(k, s)^2 phases carry kernel taps.
  const std::size_t phases = std::min(layer.kernel, s);
  t.sub_convs = phases * phases;
  t.sub_k = ceil_div(layer.kernel, s);
  t.sub_h = ceil_div(padded_h, s);
  t.sub_w = ceil_div(padded_w, s);

  const std::size_t out_h = layer.out_h();
  const std::size_t out_w = layer.out_w();

  // Relative per-cycle capacities of the three FLASH arrays (240 approx BUs,
  // 16 FP BUs, 240 FP multipliers) — the proxy for "estimated cycles".
  constexpr double kWeightUnits = 240.0;
  constexpr double kFpUnits = 16.0;
  constexpr double kPwUnits = 240.0;
  const double fft_bflies = static_cast<double>(n / 4) *
                            static_cast<double>([](std::size_t m) {
                              int l = 0;
                              while ((std::size_t{1} << l) < m) ++l;
                              return l;
                            }(n / 2));

  // Candidate patches: power-of-two sides (the sparse dataflow depends on
  // power-of-two strides in the encoded weight pattern).
  const std::size_t needed = next_pow2(std::max(t.sub_h, t.sub_w));
  bool found = false;
  double best_cost = 0.0;
  std::uint64_t best_weight_polys = 0;
  for (std::size_t patch = std::min<std::size_t>(needed, 256); patch >= std::max<std::size_t>(t.sub_k, 2);
       patch /= 2) {
    const ConvGeometry g{n, layer.in_c, patch, patch, t.sub_k};
    if (g.channels_per_poly() == 0) continue;
    const std::size_t tile_out = std::min(patch - t.sub_k + 1, std::max(out_h, out_w));
    const std::size_t spatial = ceil_div(out_h, tile_out) * ceil_div(out_w, tile_out);
    const std::uint64_t weight_polys =
        static_cast<std::uint64_t>(layer.out_c) * t.sub_convs * g.channel_tiles();
    const std::uint64_t input_polys =
        static_cast<std::uint64_t>(t.sub_convs) * spatial * g.channel_tiles();
    const std::uint64_t output_polys = static_cast<std::uint64_t>(layer.out_c) * spatial;
    const std::uint64_t pointwise = 2 * static_cast<std::uint64_t>(layer.out_c) * t.sub_convs *
                                    spatial * g.channel_tiles();
    const double frac = sparse_weight_fraction(g);
    const double cost = static_cast<double>(weight_polys) * fft_bflies * frac / kWeightUnits +
                        static_cast<double>(2 * input_polys + 2 * output_polys) * fft_bflies / kFpUnits +
                        static_cast<double>(pointwise) * static_cast<double>(n / 2) / kPwUnits;
    // Prefer strictly cheaper candidates; on near-ties (the weight array is
    // idle-capacity on ultra-sparse layers) prefer fewer weight polynomials,
    // which also keeps the NTT-baseline mapping sane.
    const bool better =
        !found || cost < best_cost * 0.999 ||
        (cost < best_cost * 1.001 && weight_polys < best_weight_polys);
    if (better) {
      found = true;
      best_cost = cost;
      best_weight_polys = weight_polys;
      t.patch_h = t.patch_w = patch;
      t.tile_out = tile_out;
      t.spatial_tiles = spatial;
      t.channels_per_poly = g.channels_per_poly();
      t.channel_tiles = g.channel_tiles();
      t.weight_mult_fraction = frac;
      t.weight_polys = weight_polys;
      t.input_polys = input_polys;
      t.output_polys = output_polys;
      t.pointwise_polys = pointwise;
    }
    if (patch == 2) break;
  }
  if (!found) {
    throw std::invalid_argument("plan_layer: polynomial degree too small for even a 1x1 tile");
  }
  t.weight_nnz = t.channels_per_poly * t.sub_k * t.sub_k;
  t.weight_transforms = t.weight_polys;
  t.cipher_transforms = 2 * t.input_polys;
  t.inverse_transforms = 2 * t.output_polys;
  return t;
}

NetworkCommunication plan_communication(const std::vector<tensor::LayerConfig>& layers,
                                        std::size_t n, std::uint64_t ciphertext_bytes) {
  NetworkCommunication c;
  for (const auto& layer : layers) {
    const LayerTiling t = plan_layer(layer, n);
    c.bytes_up += t.input_polys * ciphertext_bytes;
    c.bytes_down += t.output_polys * ciphertext_bytes;
  }
  return c;
}

NetworkTransformCounts plan_network(const std::vector<tensor::LayerConfig>& layers, std::size_t n) {
  NetworkTransformCounts c;
  for (const auto& layer : layers) {
    const LayerTiling t = plan_layer(layer, n);
    c.weight_transforms += t.weight_transforms;
    c.cipher_transforms += t.cipher_transforms;
    c.inverse_transforms += t.inverse_transforms;
    c.pointwise_polys += t.pointwise_polys;
  }
  return c;
}

}  // namespace flash::encoding
