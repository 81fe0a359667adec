// Network programs with injectable convolution executors: cleartext vs
// hybrid HE/2PC equivalence over the full stack.
#include <gtest/gtest.h>

#include <random>

#include "core/flash_accelerator.hpp"
#include "tensor/network.hpp"
#include "tensor/quant.hpp"

namespace flash {
namespace {

TEST(LayerStack, SmallResnetShapesAndDeterminism) {
  std::mt19937_64 rng(1);
  const auto stack = tensor::LayerStack::small_resnet(3, 8, 2, 10, 6, 4, 4, rng);
  // stem + 2 x (c1, c2, join) + FC
  ASSERT_EQ(stack.layers.size(), 8u);
  const tensor::Tensor3 x = tensor::random_activations(3, 6, 6, 4, rng);
  std::vector<tensor::Tensor3> outputs;
  const tensor::NetworkResult result =
      stack.forward(x, tensor::LayerStack::reference_executor(), &outputs);
  EXPECT_EQ(outputs.size(), stack.layers.size());
  EXPECT_EQ(result.features.channels(), 8u);
  EXPECT_EQ(result.features.height(), 6u);
  for (tensor::i64 v : result.features.data()) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, tensor::quant_max(4));
  }
  ASSERT_TRUE(result.has_logits);
  ASSERT_EQ(result.logits.size(), 10u);
  // The recorded FC output is the logits as a 1x1xF tensor.
  EXPECT_EQ(outputs.back().data(), result.logits);
  // Deterministic in the seed and the input.
  std::mt19937_64 rng2(1);
  const auto again = tensor::LayerStack::small_resnet(3, 8, 2, 10, 6, 4, 4, rng2);
  EXPECT_EQ(again.forward(x, tensor::LayerStack::reference_executor()).logits, result.logits);
}

TEST(LayerStack, HeadSizeMismatchThrows) {
  std::mt19937_64 rng(2);
  const auto stack = tensor::LayerStack::small_resnet(3, 8, 1, 10, 6, 4, 4, rng);
  const tensor::Tensor3 wrong = tensor::random_activations(3, 8, 8, 4, rng);  // 8x8 vs head 6x6
  EXPECT_THROW(stack.forward(wrong, tensor::LayerStack::reference_executor()),
               std::invalid_argument);
}

TEST(LayerStack, PrivateInferenceMatchesCleartext) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  core::FlashOptions options;
  options.backend = bfv::PolyMulBackend::kApproxFft;
  options.approx_config = core::high_accuracy_approx_config(params.n, params.t);
  core::FlashAccelerator acc(params, options);

  std::mt19937_64 rng(3);
  const auto stack = tensor::LayerStack::small_resnet(3, 6, 2, 8, 6, 4, 4, rng);
  const auto reference = tensor::LayerStack::reference_executor();
  const auto private_conv = acc.hconv_executor();

  for (int s = 0; s < 2; ++s) {
    const tensor::Tensor3 x = tensor::random_activations(3, 6, 6, 4, rng);
    const tensor::NetworkResult ref = stack.forward(x, reference);
    const tensor::NetworkResult got = stack.forward(x, private_conv);
    EXPECT_EQ(got.features.data(), ref.features.data()) << "sample " << s;
    EXPECT_EQ(got.logits, ref.logits) << "sample " << s;
  }
}

TEST(LayerStack, NttBackendAlsoExact) {
  // ResNet-18-shaped, so the executor also runs a stride-2 downsample.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  core::FlashOptions options;
  options.backend = bfv::PolyMulBackend::kNtt;
  core::FlashAccelerator acc(params, options);
  std::mt19937_64 rng(4);
  const auto stack = tensor::LayerStack::resnet18_like(2, 2, 6, 3, 4, 4, rng);
  const tensor::Tensor3 x = tensor::random_activations(2, 6, 6, 4, rng);
  const tensor::NetworkResult got = stack.forward(x, acc.hconv_executor());
  const tensor::NetworkResult ref = stack.forward(x, tensor::LayerStack::reference_executor());
  EXPECT_EQ(got.features, ref.features);
  EXPECT_EQ(got.logits, ref.logits);
}

TEST(LayerStack, ShapeChainAndValidation) {
  tensor::NetLayer conv;
  conv.weights = tensor::Tensor4(4, 2, 3, 1);  // rect kernel
  conv.stride = 2;
  conv.pad = 1;
  const tensor::Shape3 out =
      tensor::LayerStack::layer_output_shape({2, 7, 7}, conv);
  EXPECT_EQ(out.c, 4u);
  EXPECT_EQ(out.h, (7 + 2 - 3) / 2 + 1);
  EXPECT_EQ(out.w, (7 + 2 - 1) / 2 + 1);
  // Channel mismatch throws.
  EXPECT_THROW(tensor::LayerStack::layer_output_shape({3, 7, 7}, conv), std::invalid_argument);
  // FC weight-size mismatch throws.
  tensor::NetLayer fc;
  fc.kind = tensor::NetLayer::Kind::kFullyConnected;
  fc.fc_out = 3;
  fc.fc_weights.assign(5, 1);
  EXPECT_THROW(tensor::LayerStack::layer_output_shape({1, 2, 2}, fc), std::invalid_argument);
  // Unsaved residual source throws at forward time.
  tensor::LayerStack bad;
  tensor::NetLayer join;
  join.kind = tensor::NetLayer::Kind::kResidualAdd;
  bad.layers.push_back(join);
  EXPECT_THROW(bad.forward(tensor::Tensor3(1, 2, 2), tensor::LayerStack::reference_executor()),
               std::invalid_argument);
}

TEST(LayerStack, Resnet18LikeGeometry) {
  std::mt19937_64 rng(11);
  const auto stack = tensor::LayerStack::resnet18_like(/*in_c=*/3, /*width=*/4, /*spatial=*/8,
                                                       /*classes=*/4, 4, 4, rng);
  // stem + 2 blocks (3 layers each) + downsample + 2 blocks + FC.
  ASSERT_EQ(stack.layers.size(), 1 + 6 + 1 + 6 + 1);

  const tensor::Tensor3 x = tensor::random_activations(3, 8, 8, 4, rng);
  std::vector<tensor::Tensor3> outputs;
  const tensor::NetworkResult result =
      stack.forward(x, tensor::LayerStack::reference_executor(), &outputs);
  // Stage 1 preserves 4 x 8 x 8; the downsample halves spatial and doubles
  // channels; stage 2 preserves 8 x 4 x 4.
  EXPECT_EQ(outputs[0].channels(), 4u);
  EXPECT_EQ(outputs[0].height(), 8u);
  EXPECT_EQ(result.features.channels(), 8u);
  EXPECT_EQ(result.features.height(), 4u);
  ASSERT_TRUE(result.has_logits);
  EXPECT_EQ(result.logits.size(), 4u);
  // Activations stay inside the 4-bit post-op range through the whole net.
  for (tensor::i64 v : result.features.data()) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, tensor::quant_max(4));
  }
  // Deterministic in the seed.
  std::mt19937_64 rng2(11);
  const auto again = tensor::LayerStack::resnet18_like(3, 4, 8, 4, 4, 4, rng2);
  EXPECT_EQ(again.layers.size(), stack.layers.size());
  EXPECT_EQ(again.layers[0].weights.data(), stack.layers[0].weights.data());
}

}  // namespace
}  // namespace flash
