// Cross-module integration: the full private-inference slice — quantized
// block, Cheetah encoding, BFV protocol on the approximate+sparse datapath,
// requantization, and the classification-flip accuracy proxy.
#include <gtest/gtest.h>

#include <random>

#include "analysis/pipeline_certifier.hpp"
#include "core/flash_accelerator.hpp"
#include "tensor/quant.hpp"
#include "tensor/resnet.hpp"

namespace flash {
namespace {

using tensor::i64;

/// Pad a tensor spatially by `pad` zeros on each side.
tensor::Tensor3 pad_tensor(const tensor::Tensor3& x, std::size_t pad) {
  tensor::Tensor3 out(x.channels(), x.height() + 2 * pad, x.width() + 2 * pad);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    for (std::size_t y = 0; y < x.height(); ++y) {
      for (std::size_t xx = 0; xx < x.width(); ++xx) {
        out.at(c, y + pad, xx + pad) = x.at(c, y, xx);
      }
    }
  }
  return out;
}

TEST(Integration, PrivateConvThenRequantizeMatchesCleartext) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  core::FlashOptions options;
  options.backend = bfv::PolyMulBackend::kApproxFft;
  options.approx_config = core::high_accuracy_approx_config(params.n, params.t);
  core::FlashAccelerator flash(params, options);

  std::mt19937_64 rng(111);
  const tensor::Tensor3 x = tensor::random_activations(4, 8, 8, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(4, 4, 3, 4, rng);

  // Homomorphic path: pad ("same" conv), HConv, reconstruct, requantize.
  const tensor::Tensor3 padded = pad_tensor(x, 1);
  const protocol::HConvResult res = flash.run_hconv(padded, w);
  tensor::Tensor3 he_out = res.reconstruct(params.t);
  tensor::requantize(he_out.data(), 4, 4);

  // Cleartext path.
  tensor::Tensor3 ref = tensor::conv2d(x, w, {1, 1});
  tensor::requantize(ref.data(), 4, 4);

  EXPECT_EQ(he_out.data(), ref.data());
}

TEST(Integration, TwoLayerPrivatePipelineExact) {
  // Chain two HConvs with ReLU + requantization in between, as the hybrid
  // protocol would (non-linearities via 2PC, simulated in cleartext).
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  core::FlashOptions options;
  options.backend = bfv::PolyMulBackend::kApproxFft;
  options.approx_config = core::high_accuracy_approx_config(params.n, params.t);
  core::FlashAccelerator flash(params, options);

  std::mt19937_64 rng(112);
  const tensor::Tensor3 x = tensor::random_activations(3, 8, 8, 4, rng);
  const tensor::Tensor4 w1 = tensor::random_weights(4, 3, 3, 4, rng);
  const tensor::Tensor4 w2 = tensor::random_weights(2, 4, 3, 4, rng);

  auto layer = [&](const tensor::Tensor3& in, const tensor::Tensor4& w) {
    const protocol::HConvResult r = flash.run_hconv(pad_tensor(in, 1), w);
    tensor::Tensor3 y = r.reconstruct(params.t);
    tensor::requantize(y.data(), 4, 4);
    return tensor::relu(std::move(y));
  };
  auto layer_ref = [&](const tensor::Tensor3& in, const tensor::Tensor4& w) {
    tensor::Tensor3 y = tensor::conv2d(in, w, {1, 1});
    tensor::requantize(y.data(), 4, 4);
    return tensor::relu(std::move(y));
  };

  const tensor::Tensor3 he = layer(layer(x, w1), w2);
  const tensor::Tensor3 ref = layer_ref(layer_ref(x, w1), w2);
  EXPECT_EQ(he.data(), ref.data());
}

TEST(Integration, ClassificationFlipRateUnderApproxError) {
  // Network-level robustness proxy (paper Fig. 5(b) / Table IV accuracy):
  // run the synthetic classifier over many inputs with exact vs.
  // error-injected blocks; flips must be rare for small errors and the
  // error-free run must flip nothing.
  std::mt19937_64 rng(113);
  const tensor::QuantizedBlock block = tensor::QuantizedBlock::random(8, 3, 4, 4, rng);
  const tensor::SyntheticClassifier clf = tensor::SyntheticClassifier::random(8, 10, 4, rng);

  std::size_t flips_small = 0, flips_zero = 0;
  const int samples = 40;
  std::uniform_int_distribution<i64> small_err(-2, 2);
  for (int s = 0; s < samples; ++s) {
    const tensor::Tensor3 x = tensor::random_activations(8, 6, 6, 4, rng);
    const tensor::Tensor3 clean = block.forward(x);
    const std::size_t label = clf.predict(tensor::global_avg_pool(clean));

    const tensor::Tensor3 zero1, zero2;
    const tensor::Tensor3 again = block.forward_with_error(x, zero1, zero2);
    if (clf.predict(tensor::global_avg_pool(again)) != label) ++flips_zero;

    tensor::Tensor3 e1(8, 6, 6), e2(8, 6, 6);
    for (auto& v : e1.data()) v = small_err(rng);
    for (auto& v : e2.data()) v = small_err(rng);
    const tensor::Tensor3 noisy = block.forward_with_error(x, e1, e2);
    if (clf.predict(tensor::global_avg_pool(noisy)) != label) ++flips_small;
  }
  EXPECT_EQ(flips_zero, 0u);
  EXPECT_LT(static_cast<double>(flips_small) / samples, 0.15);
}

TEST(Integration, NoiseBudgetSurvivesApproxHConv) {
  // Kernel-level robustness: the pipeline certifier proves that one HConv
  // unit (a 3x3 kernel of weight 8 over a 10x10 patch) decrypts correctly
  // on the exact backends and on the approximate FFT at its conservative
  // operating point — the noise budget absorbs the FFT error.
  const bfv::BfvParams params = bfv::BfvParams::create(4096, 20, 49);
  analysis::HConvUnitDesc desc;
  desc.params = params;
  desc.in_c = 1;
  desc.in_h = desc.in_w = 10;
  desc.weights = tensor::Tensor4(1, 1, 3, 3);
  for (auto& v : desc.weights.data()) v = 8;
  for (const auto backend : {bfv::PolyMulBackend::kNtt, bfv::PolyMulBackend::kFft,
                             bfv::PolyMulBackend::kApproxFft}) {
    desc.backend = backend;
    desc.approx_config.reset();
    if (backend == bfv::PolyMulBackend::kApproxFft) {
      desc.approx_config = core::high_accuracy_approx_config(params.n, params.t);
    }
    const analysis::PipelineCertificate cert = analysis::certify_hconv_unit(desc);
    EXPECT_EQ(cert.verdict, analysis::PipelineVerdict::kProvenCorrectDecryption)
        << "backend " << static_cast<int>(backend) << ": " << cert.detail;
    EXPECT_GT(cert.margin_bits, 0.0) << "backend " << static_cast<int>(backend);
  }
}

TEST(Integration, EndToEndCountersMatchTilingPlan) {
  // The functional protocol and the analytic tiling planner must agree on
  // transform counts for a layer that fits without spatial tiling.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 3);

  std::mt19937_64 rng(114);
  const std::size_t c = 4, hw = 8, k = 3, m_out = 5;
  const tensor::Tensor3 x = tensor::random_activations(c, hw, hw, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(m_out, c, k, 4, rng);
  const protocol::HConvResult res = proto.run(x, w);

  tensor::LayerConfig layer;
  layer.in_c = c;
  layer.in_h = layer.in_w = hw;
  layer.out_c = m_out;
  layer.kernel = k;
  layer.stride = 1;
  layer.pad = 0;  // input is already the valid-conv patch
  const encoding::LayerTiling t = encoding::plan_layer(layer, params.n);

  EXPECT_EQ(res.ops.plain_transforms, t.weight_transforms);
  EXPECT_EQ(res.ops.cipher_transforms, t.cipher_transforms);
  EXPECT_EQ(res.ops.inverse_transforms, t.inverse_transforms);
}

}  // namespace
}  // namespace flash
