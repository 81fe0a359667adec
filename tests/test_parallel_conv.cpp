// Parallel HConv pipeline parity: ConvRunner under a thread pool must
// reconstruct exactly the cleartext convolution AND be bit-identical to the
// serial path — shares and masks included — because every HConv unit draws
// its randomness from a stream fixed by its (phase, tile) position, not by
// scheduling order. Runs under the TSan preset via `ctest -L mt`.
#include <gtest/gtest.h>

#include <random>

#include "core/flash_accelerator.hpp"
#include "core/thread_pool.hpp"
#include "protocol/conv_runner.hpp"
#include "tensor/quant.hpp"

namespace flash::protocol {
namespace {

constexpr std::uint64_t kSeed = 71;

bfv::BfvParams test_params() { return bfv::BfvParams::create(1024, 18, 46); }

ConvRunnerResult run_with_threads(const tensor::Tensor3& x, const tensor::Tensor4& w,
                                  std::size_t stride, std::size_t pad, std::size_t threads) {
  bfv::BfvContext ctx(test_params());
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, kSeed);
  if (threads <= 1) {
    ConvRunner runner(proto);
    return runner.run(x, w, stride, pad);
  }
  core::ThreadPool pool(threads);
  ConvRunner runner(proto, &pool);
  return runner.run(x, w, stride, pad);
}

class ParallelConvParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ParallelConvParity, BitIdenticalToSerialAndMatchesOracle) {
  const auto [stride, pad] = GetParam();
  std::mt19937_64 rng(17 + stride * 10 + pad);
  // Large enough spatially that stride-1 splits into several tiles (the
  // 1024-degree ring fits ~24x24 patches), so the pool has real fan-out.
  // 13 output channels decrypt as a full SoA group plus a remainder at both
  // the 8- and the 4-lane width.
  const tensor::Tensor3 x = tensor::random_activations(3, 20, 20, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(13, 3, 3, 4, rng);

  const ConvRunnerResult serial = run_with_threads(x, w, stride, pad, 1);
  const ConvRunnerResult parallel = run_with_threads(x, w, stride, pad, 8);

  // Bit-identical shares, not just identical reconstructions.
  EXPECT_EQ(serial.client_share.data(), parallel.client_share.data());
  EXPECT_EQ(serial.server_share.data(), parallel.server_share.data());
  EXPECT_EQ(serial.hconv_calls, parallel.hconv_calls);
  EXPECT_EQ(serial.bytes_client_to_server, parallel.bytes_client_to_server);

  const u64 t = test_params().t;
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {stride, pad});
  EXPECT_EQ(parallel.reconstruct(t).data(), expect.data());
  EXPECT_EQ(serial.reconstruct(t).data(), expect.data());
}

INSTANTIATE_TEST_SUITE_P(StridePad, ParallelConvParity,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2}),
                                            ::testing::Values(std::size_t{0}, std::size_t{1})));

TEST(ParallelConv, ExplicitStreamsAreSchedulingIndependent) {
  // Two protocols with the same seed: run_stream(s) must reproduce the same
  // shares for the same stream id even if the other protocol has already
  // consumed different stream ids in between.
  bfv::BfvContext ctx(test_params());
  HConvProtocol p1(ctx, bfv::PolyMulBackend::kFft, std::nullopt, kSeed);
  HConvProtocol p2(ctx, bfv::PolyMulBackend::kFft, std::nullopt, kSeed);
  std::mt19937_64 rng(3);
  const tensor::Tensor3 x = tensor::random_activations(2, 6, 6, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(2, 2, 3, 4, rng);

  (void)p2.run_stream(x, w, 5);  // consume an unrelated stream first
  const HConvResult a = p1.run_stream(x, w, 9);
  const HConvResult b = p2.run_stream(x, w, 9);
  EXPECT_EQ(a.client_share, b.client_share);
  EXPECT_EQ(a.server_share, b.server_share);
}

TEST(ParallelConv, PooledProtocolMatchesOracleOnApproxBackend) {
  // The FLASH approximate datapath under the pool: the no-retraining design
  // point is bit-exact, so reconstruction must equal the cleartext conv while
  // many threads share one FxpNegacyclicTransform.
  bfv::BfvContext ctx(test_params());
  const fft::FxpFftConfig cfg =
      core::high_accuracy_approx_config(ctx.params().n, ctx.params().t);
  core::ThreadPool pool(8);
  HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft, cfg, kSeed, &pool);
  ConvRunner runner(proto, &pool);
  std::mt19937_64 rng(23);
  const tensor::Tensor3 x = tensor::random_activations(2, 8, 8, 2, rng);
  const tensor::Tensor4 w = tensor::random_weights(3, 2, 3, 2, rng);
  const ConvRunnerResult r = runner.run(x, w, 1, 1);
  EXPECT_EQ(r.reconstruct(ctx.params().t).data(), tensor::conv2d(x, w, {1, 1}).data());
}

TEST(ParallelConv, MatVecParityUnderPool) {
  bfv::BfvContext ctx(test_params());
  std::mt19937_64 rng(31);
  const std::size_t in = 64, out = 48;
  std::vector<i64> x(in), w(in * out);
  for (auto& v : x) v = static_cast<i64>(rng() % 15) - 7;
  for (auto& v : w) v = static_cast<i64>(rng() % 15) - 7;

  HConvProtocol serial(ctx, bfv::PolyMulBackend::kFft, std::nullopt, kSeed);
  const auto rs = serial.run_matvec(x, w, out);

  core::ThreadPool pool(8);
  HConvProtocol pooled(ctx, bfv::PolyMulBackend::kFft, std::nullopt, kSeed, &pool);
  const auto rp = pooled.run_matvec(x, w, out);

  EXPECT_EQ(rs.client_share, rp.client_share);
  EXPECT_EQ(rs.server_share, rp.server_share);
  std::vector<i64> expect(out, 0);
  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t i = 0; i < in; ++i) expect[j] += w[j * in + i] * x[i];
  }
  EXPECT_EQ(rp.reconstruct(ctx.params().t), expect);
}

}  // namespace
}  // namespace flash::protocol
