// Hybrid HE/2PC protocol: share reconstruction, end-to-end HConv correctness
// on every backend, communication accounting, and profiling plumbing.
#include <gtest/gtest.h>

#include <random>

#include "core/flash_accelerator.hpp"
#include "protocol/hconv_protocol.hpp"
#include "tensor/quant.hpp"

namespace flash::protocol {
namespace {

std::vector<u64> as_u64(const std::vector<i64>& shares) {
  return std::vector<u64>(shares.begin(), shares.end());
}

TEST(SecretSharing, ReconstructRoundTrip) {
  // Power-of-two t maps each draw by a shift; the odd t = 65537 and t = 97
  // reject draws and take share_into's scalar continuation.
  std::mt19937_64 rng(81);
  std::vector<i64> values;
  std::uniform_int_distribution<i64> dist(-30000, 30000);
  for (int i = 0; i < 500; ++i) values.push_back(dist(rng));
  for (const u64 t : {u64{1} << 16, u64{65537}}) {
    hemath::Sampler sampler(81);
    std::vector<i64> client(values.size()), server(values.size());
    share_into(values, t, sampler, client, server);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_GE(client[i], 0);
      ASSERT_LT(static_cast<u64>(client[i]), t);
      ASSERT_GE(server[i], 0);
      ASSERT_LT(static_cast<u64>(server[i]), t);
    }
    EXPECT_EQ(reconstruct(as_u64(client), as_u64(server), t), values) << "t=" << t;
    // The client shares are exactly the sampler's uniform draws.
    hemath::Sampler replay(81);
    for (const i64 c : client) ASSERT_EQ(static_cast<u64>(c), replay.uniform_mod(t));
  }
  const std::vector<i64> small = {-48, -1, 0, 1, 48};
  hemath::Sampler sampler(82);
  std::vector<i64> client(small.size()), server(small.size());
  share_into(small, 97, sampler, client, server);
  EXPECT_EQ(reconstruct(as_u64(client), as_u64(server), 97), small);
  EXPECT_THROW(share_into(small, 97, sampler, std::span<i64>(client).first(4), server),
               std::invalid_argument);
}

TEST(SecretSharing, SharesLookUniform) {
  hemath::Sampler sampler(82);
  const u64 t = 1 << 8;
  const std::vector<i64> values(4096, 7);  // constant cleartext
  std::vector<i64> client(values.size()), server(values.size());
  share_into(values, t, sampler, client, server);
  // Client shares of a constant must still cover the whole range.
  std::vector<int> hist(t, 0);
  for (const i64 v : client) ++hist[static_cast<std::size_t>(v)];
  int nonzero_bins = 0;
  for (int h : hist) nonzero_bins += h > 0;
  EXPECT_GT(nonzero_bins, 200);
}

TEST(Protocol, CiphertextBytes) {
  const bfv::BfvParams p = bfv::BfvParams::create(1024, 16, 45);
  // 45-bit q -> 6 bytes per coefficient, 2 polynomials.
  EXPECT_EQ(ciphertext_bytes(p), 2u * 1024u * 6u);
}

class ProtocolBackend : public ::testing::TestWithParam<bfv::PolyMulBackend> {};

TEST_P(ProtocolBackend, HConvMatchesCleartextConv) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  std::optional<fft::FxpFftConfig> cfg;
  if (GetParam() == bfv::PolyMulBackend::kApproxFft) {
    cfg = core::high_accuracy_approx_config(params.n, params.t);
  }
  HConvProtocol proto(ctx, GetParam(), cfg, 4242);

  std::mt19937_64 rng(83);
  const tensor::Tensor3 x = tensor::random_activations(6, 9, 9, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(4, 6, 3, 4, rng);

  HConvResult result = proto.run(x, w);
  const tensor::Tensor3 got = result.reconstruct(params.t);
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {1, 0});
  EXPECT_EQ(got.data(), expect.data()) << "backend HConv result mismatch";

  EXPECT_GT(result.profile.bytes_client_to_server, 0u);
  EXPECT_GT(result.profile.bytes_server_to_client, 0u);
  EXPECT_GT(result.profile.total_s(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProtocolBackend,
                         ::testing::Values(bfv::PolyMulBackend::kNtt, bfv::PolyMulBackend::kFft,
                                           bfv::PolyMulBackend::kApproxFft));

TEST(Protocol, HeadlineConfigErrorBoundedByModulus) {
  // Reproduction finding (DESIGN.md): under faithful BFV the k = 5 headline
  // configuration leaves a residual error that scales with the plaintext
  // modulus (~t/8 rms), because the weight-spectrum error multiplies the
  // ciphertext-scale elements. It stays bounded (never full-modulus
  // garbage); bit-exactness is provided by the high-accuracy configuration
  // (tested in ProtocolBackend above). The paper's k = 5 accuracy claims are
  // reproduced under its own error-injection methodology in bench/.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft,
                      core::default_approx_config(params.n, params.t), 555);
  std::mt19937_64 rng(87);
  const tensor::Tensor3 x = tensor::random_activations(6, 9, 9, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(4, 6, 3, 4, rng);
  const HConvResult result = proto.run(x, w);
  const tensor::Tensor3 got = result.reconstruct(params.t);
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {1, 0});
  double rms = 0;
  i64 max_err = 0;
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    const i64 d = got.data()[i] - expect.data()[i];
    max_err = std::max<i64>(max_err, std::abs(d));
    rms += static_cast<double>(d) * static_cast<double>(d);
  }
  rms = std::sqrt(rms / static_cast<double>(got.data().size()));
  EXPECT_GT(max_err, 0);
  EXPECT_LT(rms, static_cast<double>(params.t) / 4.0);
  EXPECT_LT(max_err, static_cast<i64>(params.t) / 2);
}

TEST(Protocol, MultiTileAccumulation) {
  // Force several channel tiles: 24 channels x 9x9 patch in a 1024-degree
  // polynomial (slack 2*9+2=20 -> 12 channels per poly -> 2 tiles).
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kNtt, std::nullopt, 99);
  std::mt19937_64 rng(84);
  const tensor::Tensor3 x = tensor::random_activations(24, 9, 9, 3, rng);
  const tensor::Tensor4 w = tensor::random_weights(2, 24, 3, 3, rng);
  HConvResult result = proto.run(x, w);
  EXPECT_EQ(result.reconstruct(params.t).data(), tensor::conv2d(x, w, {1, 0}).data());
  // Two ciphertexts uploaded.
  EXPECT_EQ(result.profile.bytes_client_to_server, 2 * ciphertext_bytes(params));
  // One result ciphertext per output channel.
  EXPECT_EQ(result.profile.bytes_server_to_client, 2 * ciphertext_bytes(params));
}

TEST(Protocol, WeightTransformsAmortized) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 7);
  std::mt19937_64 rng(85);
  const tensor::Tensor3 x = tensor::random_activations(4, 8, 8, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(8, 4, 3, 4, rng);
  const HConvResult result = proto.run(x, w);
  // 8 output channels x 1 tile: exactly 8 plain transforms. The ciphertext
  // is transformed once per element (2 total) and *shared* across all 8
  // output channels (paper §III-B amortization); one inverse per output
  // ciphertext element (16).
  EXPECT_EQ(result.ops.plain_transforms, 8u);
  EXPECT_EQ(result.ops.cipher_transforms, 2u);
  EXPECT_EQ(result.ops.inverse_transforms, 16u);
}

TEST(Protocol, RunStreamRejectsChannelMismatch) {
  // The shape guard holds on both paths: against caller-prepared weights,
  // and when run_stream transforms the weights itself.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 8);
  std::mt19937_64 rng(87);
  const tensor::Tensor3 x = tensor::random_activations(3, 6, 6, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(2, 2, 3, 4, rng);
  const auto prepared = proto.prepare_weights(6, 6, w);
  EXPECT_THROW((void)proto.run_stream(x, w, 0), std::invalid_argument);
  EXPECT_THROW((void)proto.run_stream(x, w, 0, prepared.get()), std::invalid_argument);
}

class ProtocolSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolSeeds, HConvExactAcrossSeeds) {
  // Stability sweep: fresh keys, shares and masks every seed; the protocol
  // must reconstruct exactly each time.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kNtt, std::nullopt, GetParam());
  std::mt19937_64 rng(GetParam() * 3 + 1);
  const tensor::Tensor3 x = tensor::random_activations(1 + rng() % 8, 6 + rng() % 5,
                                                       6 + rng() % 5, 4, rng);
  const tensor::Tensor4 w =
      tensor::random_weights(1 + rng() % 4, x.channels(), 3, 4, rng);
  const HConvResult result = proto.run(x, w);
  EXPECT_EQ(result.reconstruct(params.t).data(), tensor::conv2d(x, w, {1, 0}).data());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolSeeds, ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(Protocol, MatVecFcLayerMatchesLinear) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 31);
  std::mt19937_64 rng(88);
  std::uniform_int_distribution<i64> wdist(-7, 7), xdist(0, 15);
  const std::size_t in_f = 256, out_f = 10;
  std::vector<i64> w(in_f * out_f), x(in_f);
  for (auto& v : w) v = wdist(rng);
  for (auto& v : x) v = xdist(rng);
  auto result = proto.run_matvec(x, w, out_f);
  EXPECT_EQ(result.reconstruct(params.t), tensor::linear(x, w, out_f));
  // One ciphertext up; ceil(10 / (1024/256)) = 3 chunks back.
  EXPECT_EQ(result.profile.bytes_client_to_server, ciphertext_bytes(params));
  EXPECT_EQ(result.profile.bytes_server_to_client, 3 * ciphertext_bytes(params));
}

TEST(Protocol, MatVecMultiChunk) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kNtt, std::nullopt, 32);
  std::mt19937_64 rng(89);
  std::uniform_int_distribution<i64> wdist(-7, 7), xdist(0, 15);
  const std::size_t in_f = 512, out_f = 9;  // 2 rows per poly -> 5 chunks
  std::vector<i64> w(in_f * out_f), x(in_f);
  for (auto& v : w) v = wdist(rng);
  for (auto& v : x) v = xdist(rng);
  auto result = proto.run_matvec(x, w, out_f);
  EXPECT_EQ(result.reconstruct(params.t), tensor::linear(x, w, out_f));
  EXPECT_EQ(result.client_share.size(), out_f);
}

TEST(Protocol, ServerLearnsNothingWithoutMask) {
  // The returned client share alone must not reveal the result: compare
  // against the true output and expect (overwhelmingly) disagreement.
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kNtt, std::nullopt, 11);
  std::mt19937_64 rng(86);
  const tensor::Tensor3 x = tensor::random_activations(2, 8, 8, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(1, 2, 3, 4, rng);
  const HConvResult result = proto.run(x, w);
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {1, 0});
  std::size_t matches = 0;
  for (std::size_t i = 0; i < expect.data().size(); ++i) {
    const i64 client_only = hemath::to_signed(result.client_share[0][i], params.t);
    if (client_only == expect.data()[i]) ++matches;
  }
  EXPECT_LT(matches, expect.data().size() / 8);
}

}  // namespace
}  // namespace flash::protocol
