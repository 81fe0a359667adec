// FlashAccelerator public API: layer planning, network estimates matching
// the paper's headline factors, sparse fractions, and functional HConv.
#include <gtest/gtest.h>

#include "core/flash_accelerator.hpp"
#include "tensor/quant.hpp"

namespace flash::core {
namespace {

bfv::BfvParams small_params() { return bfv::BfvParams::create(1024, 18, 46); }
bfv::BfvParams paper_params() { return bfv::BfvParams::create(4096, 20, 49); }

TEST(FlashAccelerator, DefaultApproxConfigShape) {
  const auto cfg = default_approx_config(4096, std::uint64_t{1} << 20);
  EXPECT_EQ(cfg.stage_frac_bits.size(), 11u);  // log2(2048)
  EXPECT_EQ(cfg.twiddle_k, 5);
  EXPECT_EQ(cfg.data_width, 27);
}

TEST(FlashAccelerator, SparseFractionMatchesPaperClaim) {
  // Paper: the sparse dataflow skips >86% of weight-transform
  // multiplications. The claim holds at the *network* level: averaged over
  // ResNet-50's encoded weight patterns (mostly 1x1 convs, power-of-two
  // padded patches), weighted by transform counts.
  FlashAccelerator flash(paper_params());
  double weighted = 0.0;
  std::uint64_t transforms = 0;
  for (const auto& layer : tensor::resnet50_conv_layers()) {
    const LayerPlan plan = flash.plan_layer(layer);
    weighted += plan.weight_mult_fraction * static_cast<double>(plan.tiling.weight_transforms);
    transforms += plan.tiling.weight_transforms;
  }
  const double avg = weighted / static_cast<double>(transforms);
  EXPECT_LT(avg, 0.14);
  EXPECT_GT(avg, 0.0);
}

TEST(FlashAccelerator, PowerOfTwoPatchesBeatRawDims) {
  // The planner pads patches to powers of two precisely because the sparse
  // dataflow is much cheaper there (paper Fig. 8(a) precondition).
  FlashAccelerator flash(paper_params());
  const double pow2 = flash.sparse_mult_fraction({4096, 1, 64, 64, 3});
  const double raw = flash.sparse_mult_fraction({4096, 1, 58, 58, 3});
  EXPECT_LT(pow2, raw);
}

TEST(FlashAccelerator, DenserPatternsCostMore) {
  FlashAccelerator flash(paper_params());
  const encoding::ConvGeometry sparse_geo{4096, 1, 58, 58, 3};
  const encoding::ConvGeometry dense_geo{4096, 40, 9, 9, 3};  // many channels
  EXPECT_LT(flash.sparse_mult_fraction(sparse_geo), flash.sparse_mult_fraction(dense_geo));
}

TEST(FlashAccelerator, PlanLayerConsistency) {
  FlashAccelerator flash(paper_params());
  tensor::LayerConfig layer;
  layer.name = "layer3-like";
  layer.in_c = 256;
  layer.in_h = layer.in_w = 14;
  layer.out_c = 256;
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  const LayerPlan plan = flash.plan_layer(layer);
  EXPECT_GT(plan.tiling.weight_transforms, 0u);
  EXPECT_LT(plan.weight_mult_fraction, 0.6);
  EXPECT_GT(plan.flash.seconds, 0.0);
  EXPECT_GT(plan.cham.seconds, plan.flash.seconds);
  EXPECT_GT(plan.f1.joules, plan.flash.joules);
}

TEST(FlashAccelerator, Resnet18NetworkEstimateShape) {
  FlashAccelerator flash(paper_params());
  const NetworkEstimate est = flash.estimate_network(tensor::resnet18_conv_layers());
  // Paper Table IV: 21.84x over CHAM for ResNet-18 linear layers; our
  // simulator should land in the same regime (an order of magnitude up).
  EXPECT_GT(est.speedup_vs_cham(), 8.0);
  EXPECT_LT(est.speedup_vs_cham(), 120.0);
  // Paper: ~87% energy reduction vs F1.
  EXPECT_GT(est.energy_reduction_vs_f1(), 0.6);
  EXPECT_LT(est.energy_reduction_vs_f1(), 1.0);
}

TEST(FlashAccelerator, Resnet50MoreWorkThanResnet18) {
  FlashAccelerator flash(paper_params());
  const NetworkEstimate r18 = flash.estimate_network(tensor::resnet18_conv_layers());
  const NetworkEstimate r50 = flash.estimate_network(tensor::resnet50_conv_layers());
  EXPECT_GT(r50.flash.seconds, r18.flash.seconds);
  EXPECT_GT(r50.workload.weight_transforms, r18.workload.weight_transforms);
}

TEST(FlashAccelerator, RunHConvEndToEnd) {
  FlashOptions options;
  options.backend = bfv::PolyMulBackend::kApproxFft;
  options.approx_config = high_accuracy_approx_config(small_params().n, small_params().t);
  FlashAccelerator flash(small_params(), options);
  std::mt19937_64 rng(71);
  const tensor::Tensor3 x = tensor::random_activations(4, 9, 9, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(3, 4, 3, 4, rng);
  const protocol::HConvResult result = flash.run_hconv(x, w);
  const tensor::Tensor3 got = result.reconstruct(small_params().t);
  EXPECT_EQ(got.data(), tensor::conv2d(x, w, {1, 0}).data());
}

TEST(FlashAccelerator, TuneLayerMeetsThreshold) {
  FlashAccelerator flash(small_params());
  tensor::LayerConfig layer;
  layer.name = "toy";
  layer.in_c = 8;
  layer.in_h = layer.in_w = 8;
  layer.out_c = 8;
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  // Layer-level absorption: requant discards ~2^6, activations ~rms 4.
  const auto tuned = flash.tune_layer(layer, 32.0, 4.0, 250);
  EXPECT_LE(tuned.point.error_variance, tuned.threshold);
  EXPECT_LT(tuned.point.normalized_power, 1.0);
  EXPECT_EQ(tuned.config.stage_frac_bits.size(), 9u);  // log2(512)

  // A tighter error budget buys a costlier configuration.
  const auto strict = flash.tune_layer(layer, 0.4, 4.0, 250);
  EXPECT_LT(strict.threshold, tuned.threshold);
  EXPECT_GE(strict.point.normalized_power, tuned.point.normalized_power);
}

TEST(FlashAccelerator, ThresholdHelperIsQuadratic) {
  EXPECT_DOUBLE_EQ(dse::spectrum_error_threshold(8.0, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(dse::spectrum_error_threshold(4.0, 4.0), 1.0);
  EXPECT_THROW(dse::spectrum_error_threshold(0.0, 1.0), std::invalid_argument);
}

TEST(FlashAccelerator, ExploreLayerReturnsScatter) {
  FlashAccelerator flash(small_params());
  tensor::LayerConfig layer;
  layer.name = "toy";
  layer.in_c = 8;
  layer.in_h = layer.in_w = 8;
  layer.out_c = 8;
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  dse::BayesOptions opts;
  opts.evaluations = 120;
  const auto points = flash.explore_layer(layer, opts);
  EXPECT_EQ(points.size(), 120u);
  const auto front = dse::pareto_front(points);
  EXPECT_GE(front.size(), 2u);
}

}  // namespace
}  // namespace flash::core
