// FLASH: the paper's contribution as a single public API.
//
// A FlashAccelerator owns a BFV instance and a hardware configuration. For
// any convolutional layer it can:
//   * plan   — tile the layer onto polynomials, build the sparse butterfly
//              dataflow for its encoded weight pattern, and estimate
//              latency/energy on FLASH and on the baselines;
//   * run    — execute the full hybrid HE/2PC HConv functionally, with the
//              server's PolyMul on the approximate+sparse FFT datapath;
//   * tune   — run the Bayesian DSE to pick per-stage bit-widths for the
//              layer.
#pragma once

#include <optional>

#include "accel/baselines.hpp"
#include "accel/workload.hpp"
#include "bfv/evaluator.hpp"
#include "dse/bayesopt.hpp"
#include "encoding/tiling.hpp"
#include "protocol/hconv_protocol.hpp"
#include "sparsefft/executor.hpp"
#include "tensor/network.hpp"

namespace flash::core {

struct FlashOptions {
  accel::FlashConfig hardware = accel::FlashConfig::paper_default();
  bfv::PolyMulBackend backend = bfv::PolyMulBackend::kApproxFft;
  /// Approximate-FFT configuration for functional execution. If empty, a
  /// uniform 27-bit (k = 5) configuration is derived per ring degree.
  std::optional<fft::FxpFftConfig> approx_config;
  std::uint64_t seed = 20250307;
};

/// Everything known about one layer's HConv before running it.
struct LayerPlan {
  tensor::LayerConfig layer;
  encoding::LayerTiling tiling;
  /// Fraction of dense FFT butterfly multiplications the sparse dataflow
  /// executes for this layer's encoded weight pattern.
  double weight_mult_fraction = 1.0;
  accel::TransformWorkload workload;
  accel::LatencyEnergy flash;          // approx + sparse (the FLASH datapath)
  accel::LatencyEnergy cham;           // CHAM baseline
  accel::LatencyEnergy f1;             // F1 baseline
};

/// Aggregate over a network's conv layers.
struct NetworkEstimate {
  accel::TransformWorkload workload;
  accel::FlashRunBreakdown flash_detail;
  accel::LatencyEnergy flash;  // array-bound latency incl. the point-wise array
  accel::LatencyEnergy cham;
  accel::LatencyEnergy f1;
  /// Table IV methodology: transform-array latency (the paper defers the
  /// point-wise bottleneck to future work).
  double flash_transform_seconds() const { return flash_detail.transform_seconds(); }
  double speedup_vs_cham() const { return cham.seconds / flash_transform_seconds(); }
  double energy_reduction_vs_f1() const { return 1.0 - flash.joules / f1.joules; }
};

class FlashAccelerator {
 public:
  FlashAccelerator(bfv::BfvParams params, FlashOptions options = {});

  const bfv::BfvContext& context() const { return ctx_; }
  const FlashOptions& options() const { return options_; }
  const fft::FxpFftConfig& approx_config() const { return approx_config_; }

  /// Sparse-dataflow multiplication fraction for a geometry's weight pattern
  /// (non-trivial complex multiplications, sparse / dense).
  double sparse_mult_fraction(const encoding::ConvGeometry& geometry) const;

  LayerPlan plan_layer(const tensor::LayerConfig& layer) const;
  NetworkEstimate estimate_network(const std::vector<tensor::LayerConfig>& layers) const;

  /// Functional hybrid HE/2PC convolution on this accelerator's datapath.
  /// Input must be pre-padded; stride 1.
  protocol::HConvResult run_hconv(const tensor::Tensor3& x, const tensor::Tensor4& weights);

  /// A convolution executor (any stride and padding) that routes every
  /// convolution through the HE/2PC protocol — pass it to
  /// tensor::LayerStack::forward to run a whole network privately.
  tensor::LayerStack::ConvExec hconv_executor();

  /// Run the Bayesian design-space exploration for a layer's weight
  /// statistics and return all evaluated points (Fig. 11(b)(c)).
  std::vector<dse::EvaluatedPoint> explore_layer(const tensor::LayerConfig& layer,
                                                 const dse::BayesOptions& options) const;

  /// Full per-layer tuning (paper Fig. 10): explore the space and return the
  /// cheapest design point whose predicted error variance stays below the
  /// layer's T_err, as an executable FXP FFT configuration.
  /// tolerable_output_error: conv-output perturbation the downstream
  /// robustness absorbs (e.g. half the requantization LSBs); activation_rms:
  /// typical activation magnitude of the layer.
  struct TunedConfig {
    dse::EvaluatedPoint point;
    fft::FxpFftConfig config;
    double threshold = 0.0;
  };
  TunedConfig tune_layer(const tensor::LayerConfig& layer, double tolerable_output_error,
                         double activation_rms, std::size_t evaluations = 400) const;

 private:
  protocol::HConvProtocol& hconv_protocol();  // built on first use

  bfv::BfvContext ctx_;
  FlashOptions options_;
  fft::FxpFftConfig approx_config_;
  std::optional<protocol::HConvProtocol> proto_;
};

/// Uniform default approximate configuration: 27-bit data path, k = 5 CSD
/// twiddles (the paper's headline operating point, which assumes
/// approximation-aware training downstream: it perturbs conv outputs by a
/// few LSBs that requantization absorbs).
fft::FxpFftConfig default_approx_config(std::size_t n, std::uint64_t t);

/// Conservative configuration: 48-bit data path, k = 20 CSD twiddles — wider
/// than the paper's no-retraining point (39-bit, k = 18) because decryption's
/// c1*s wrap amplifies weight-spectrum error. HConv outputs equal the exact
/// backends only where protocol::certify_conv proves correct decryption: at
/// N = 4096 four stage-2 ResNet-18 3x3 convs certify
/// failure-possible-with-witness and measure 1-2 LSB off the exact result.
fft::FxpFftConfig high_accuracy_approx_config(std::size_t n, std::uint64_t t);

}  // namespace flash::core
