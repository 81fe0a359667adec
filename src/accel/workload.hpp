// Mapping HConv transform workloads onto accelerator configurations:
// cycle-accurate-at-the-butterfly-level throughput, latency and energy.
//
// A transform workload is the operation inventory produced by the encoding
// tiling planner (encoding/tiling.hpp). Costing rules:
//   * one BU retires one butterfly per cycle;
//   * an M-point FFT is (M/2)*log2(M) butterflies, an N-point NTT is
//     (N/2)*log2(N);
//   * the sparse weight dataflow executes only `weight_mult_fraction` of the
//     dense butterflies (measured by the sparsefft planner for the layer's
//     actual pattern);
//   * point-wise products run on the FP multiplier array, one complex
//     product per unit per cycle;
//   * the approximate array, the FP transform array and the point-wise array
//     pipeline against each other, so latency is the max of the three;
//     energy is the sum of active-op energies.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "accel/flash_config.hpp"
#include "encoding/tiling.hpp"
#include "sparsefft/planner.hpp"

namespace flash::accel {

struct TransformWorkload {
  std::size_t n = 4096;  // ring degree (FFT size n/2, NTT size n)
  std::uint64_t weight_transforms = 0;
  std::uint64_t cipher_transforms = 0;
  std::uint64_t inverse_transforms = 0;
  std::uint64_t pointwise_polys = 0;  // ct-element x weight spectral products
  /// Fraction of dense FFT butterflies the sparse dataflow actually executes
  /// for weight transforms (1.0 = dense).
  double weight_mult_fraction = 1.0;

  static TransformWorkload from_tiling(const encoding::LayerTiling& tiling,
                                       double weight_mult_fraction);
  static TransformWorkload from_network(const std::vector<tensor::LayerConfig>& layers,
                                        std::size_t n, double weight_mult_fraction);
  TransformWorkload& operator+=(const TransformWorkload& other);
};

std::uint64_t dense_fft_butterflies(std::size_t n);  // negacyclic via n/2-point FFT
std::uint64_t dense_ntt_butterflies(std::size_t n);

/// Operation counts of a dense M-point radix-4 transform (M a power of two)
/// for the butterfly-radix ablation: 4-point butterflies (3 twiddles, 12 adds
/// each), with 2-point butterflies at the leaves when log2(M) is odd.
/// Twiddles that are powers of i are rotations (wiring), counted as trivial.
/// Only the per-stage fields are filled. The radix-2 counterpart is
/// sparsefft::SparseFftPlan::dense_cost.
sparsefft::PlanCost radix4_dense_cost(std::size_t m);

struct LatencyEnergy {
  double seconds = 0.0;
  double joules = 0.0;
};

/// Per-array timing of one FLASH run. Mapping (validated against the paper's
/// Table III/IV arithmetic): the 240-BU approximate array executes the sparse
/// weight transforms AND the dense inverse transforms (both tolerate FXP
/// arithmetic); the FP BUs execute ciphertext forward transforms; the FP
/// multiplier array executes point-wise products. `transform_seconds` is the
/// paper's latency metric (transform arrays only — the paper explicitly
/// defers the point-wise bottleneck to future work); `seconds` also covers
/// the point-wise array.
struct FlashRunBreakdown {
  double weight_array_s = 0.0;  // approx BUs: sparse weight fwd + dense inverse
  double fp_array_s = 0.0;      // FP BUs: ciphertext forward transforms
  double pointwise_s = 0.0;     // FP multiplier array
  double weight_array_j = 0.0;
  double fp_array_j = 0.0;
  double pointwise_j = 0.0;

  double transform_seconds() const { return std::max(weight_array_s, fp_array_s); }
  double seconds() const { return std::max(transform_seconds(), pointwise_s); }
  double joules() const { return weight_array_j + fp_array_j + pointwise_j; }
};

/// Datapath selection for the weight-transform array (the ablation knob of
/// Fig. 11(d)(e)).
enum class WeightPath {
  kFpDense,        // "FFT(a)": FP BUs, dense dataflow
  kFxpDense,       // "FXP FFT": plain 27-bit fixed point, dense dataflow
  kFpSparse,       // sparse dataflow on FP BUs (sparse-only ablation)
  kApproxDense,    // approximate BUs (CSD k), dense dataflow (approx-only)
  kApproxSparse,   // FLASH: sparse dataflow on approximate BUs
};

/// Run a workload on a FLASH-style configuration with the chosen weight path.
LatencyEnergy flash_run(const FlashConfig& config, const TransformWorkload& w, WeightPath path);

/// Same run with per-array timing/energy detail.
FlashRunBreakdown flash_run_breakdown(const FlashConfig& config, const TransformWorkload& w,
                                      WeightPath path);

/// Weight-transform-only energy (the Fig. 11(d)(e) bars).
double weight_transform_energy_j(const FlashConfig& config, const TransformWorkload& w,
                                 WeightPath path);

/// CHAM baseline: 240 modular BUs @ 300 MHz (FPGA), dense NTT for all
/// transforms; point-wise products on the same modular multipliers.
LatencyEnergy cham_run(const TransformWorkload& w);

/// F1 baseline: published throughput/power (Table III), dense NTT.
LatencyEnergy f1_run(const TransformWorkload& w);

/// Normalized throughput in "transforms per second" (Table III convention:
/// NTT normalized to N = 4096, FFT to N = 2048).
double flash_norm_throughput(const FlashConfig& config, double weight_mult_fraction,
                             bool weight_only);

}  // namespace flash::accel
