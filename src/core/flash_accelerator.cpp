#include "core/flash_accelerator.hpp"

#include <algorithm>

#include "encoding/encoder.hpp"
#include "protocol/conv_runner.hpp"

namespace flash::core {

namespace {
fft::FxpFftConfig uniform_approx_config(std::size_t n, std::uint64_t t, int width, int k) {
  dse::DesignSpace space(n / 2, dse::SpaceBounds{8, 48, 2, 20});
  dse::DesignPoint p;
  p.stage_widths.assign(static_cast<std::size_t>(space.stages()), width);
  p.twiddle_k = k;
  // Weight coefficients are low-bit quantized values; 64 covers up to 7-bit
  // weights with margin (t bounds them in any case).
  const double max_abs = std::min<double>(static_cast<double>(t / 2), 64.0);
  return space.to_config(p, max_abs);
}
}  // namespace

fft::FxpFftConfig default_approx_config(std::size_t n, std::uint64_t t) {
  return uniform_approx_config(n, t, 27, 5);
}

fft::FxpFftConfig high_accuracy_approx_config(std::size_t n, std::uint64_t t) {
  // Reproduction note (see DESIGN.md): a faithful BFV implementation wraps
  // c1*s mod q during decryption, which amplifies any weight-spectrum error
  // delta by ~ t * sqrt(N) * ||wrap quotient||. Keeping the decrypted result
  // bit-exact therefore needs the spectrum accurate to ~2^-26, i.e. a wider
  // word than the paper's no-retraining point (39-bit, k=18). 48-bit data
  // with k=20 twiddles is exact wherever certify_conv proves correct
  // decryption (the "full equivalence with the 39-bit NTT" regime of paper
  // §III-A), but not on every layer: see the header.
  return uniform_approx_config(n, t, 48, 20);
}

FlashAccelerator::FlashAccelerator(bfv::BfvParams params, FlashOptions options)
    : ctx_(params), options_(std::move(options)) {
  approx_config_ = options_.approx_config
                       ? *options_.approx_config
                       : default_approx_config(params.n, params.t);
}

double FlashAccelerator::sparse_mult_fraction(const encoding::ConvGeometry& geometry) const {
  return encoding::sparse_weight_fraction(geometry);
}

LayerPlan FlashAccelerator::plan_layer(const tensor::LayerConfig& layer) const {
  const auto& p = ctx_.params();
  LayerPlan plan;
  plan.layer = layer;
  plan.tiling = encoding::plan_layer(layer, p.n);
  plan.weight_mult_fraction = plan.tiling.weight_mult_fraction;
  plan.workload = accel::TransformWorkload::from_tiling(plan.tiling, plan.weight_mult_fraction);
  plan.flash = accel::flash_run(options_.hardware, plan.workload, accel::WeightPath::kApproxSparse);
  plan.cham = accel::cham_run(plan.workload);
  plan.f1 = accel::f1_run(plan.workload);
  return plan;
}

NetworkEstimate FlashAccelerator::estimate_network(
    const std::vector<tensor::LayerConfig>& layers) const {
  NetworkEstimate est;
  est.workload.n = ctx_.params().n;
  bool first = true;
  for (const auto& layer : layers) {
    const LayerPlan plan = plan_layer(layer);
    if (first) {
      est.workload = plan.workload;
      first = false;
    } else {
      est.workload += plan.workload;
    }
  }
  // The three FLASH arrays stream the whole network, so the latency bound is
  // the busiest array over the aggregate workload (not the sum of per-layer
  // maxima); the serial baselines are linear either way.
  est.flash_detail =
      accel::flash_run_breakdown(options_.hardware, est.workload, accel::WeightPath::kApproxSparse);
  est.flash = {est.flash_detail.seconds(), est.flash_detail.joules()};
  est.cham = accel::cham_run(est.workload);
  est.f1 = accel::f1_run(est.workload);
  return est;
}

protocol::HConvProtocol& FlashAccelerator::hconv_protocol() {
  if (!proto_) {
    std::optional<fft::FxpFftConfig> cfg;
    if (options_.backend == bfv::PolyMulBackend::kApproxFft) cfg = approx_config_;
    proto_.emplace(ctx_, options_.backend, cfg, options_.seed);
  }
  return *proto_;
}

protocol::HConvResult FlashAccelerator::run_hconv(const tensor::Tensor3& x,
                                                  const tensor::Tensor4& weights) {
  return hconv_protocol().run(x, weights);
}

tensor::LayerStack::ConvExec FlashAccelerator::hconv_executor() {
  return [this](const tensor::Tensor3& x, const tensor::Tensor4& w, std::size_t stride,
                std::size_t pad) {
    // ConvRunner handles padding, stride phases and spatial tiling.
    protocol::ConvRunner runner(hconv_protocol());
    return runner.run(x, w, stride, pad).reconstruct(ctx_.params().t);
  };
}

std::vector<dse::EvaluatedPoint> FlashAccelerator::explore_layer(
    const tensor::LayerConfig& layer, const dse::BayesOptions& options) const {
  const auto& p = ctx_.params();
  const encoding::LayerTiling tiling = encoding::plan_layer(layer, p.n);
  const dse::SpaceBounds bounds;
  dse::DesignSpace space(p.n / 2, bounds);
  dse::ErrorModel error = dse::ErrorModel::from_weight_stats(p.n, tiling.weight_nnz, 8.0);
  dse::CostModel cost(p.n / 2, bounds);
  dse::BayesianExplorer explorer(std::move(space), std::move(error), std::move(cost),
                                 options_.seed);
  return explorer.explore(options);
}

FlashAccelerator::TunedConfig FlashAccelerator::tune_layer(const tensor::LayerConfig& layer,
                                                           double tolerable_output_error,
                                                           double activation_rms,
                                                           std::size_t evaluations) const {
  dse::BayesOptions options;
  options.evaluations = evaluations;
  const auto points = explore_layer(layer, options);
  TunedConfig tuned;
  tuned.threshold = dse::spectrum_error_threshold(tolerable_output_error, activation_rms);
  tuned.point = dse::best_under_threshold(points, tuned.threshold);
  dse::DesignSpace space(ctx_.params().n / 2, dse::SpaceBounds{});
  tuned.config = space.to_config(tuned.point.point, 8.0);
  return tuned;
}

}  // namespace flash::core
