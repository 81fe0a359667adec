// ConvRunner: padding, stride decomposition and spatial tiling over the
// HE/2PC protocol, validated against the direct convolution oracle.
#include <gtest/gtest.h>

#include <random>

#include "core/flash_accelerator.hpp"
#include "core/thread_pool.hpp"
#include "protocol/conv_runner.hpp"
#include "protocol/plan_certificate.hpp"
#include "tensor/quant.hpp"

namespace flash::protocol {
namespace {

struct Fixture {
  bfv::BfvContext ctx;
  HConvProtocol proto;
  ConvRunner runner;

  Fixture() : ctx(bfv::BfvParams::create(1024, 18, 46)),
              proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 71), runner(proto) {}
};

class ConvRunnerShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                                                 std::size_t, std::size_t>> {};

TEST_P(ConvRunnerShapes, MatchesDirectConv) {
  const auto [c, hw, out_c, k, stride, pad] = GetParam();
  Fixture f;
  std::mt19937_64 rng(c * 100 + hw + k * 10 + stride);
  const tensor::Tensor3 x = tensor::random_activations(c, hw, hw, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(out_c, c, k, 4, rng);
  const ConvRunnerResult r = f.runner.run(x, w, stride, pad);
  const tensor::Tensor3 got = r.reconstruct(f.ctx.params().t);
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {stride, pad});
  EXPECT_EQ(got.data(), expect.data());
  EXPECT_EQ(got.height(), expect.height());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvRunnerShapes,
    ::testing::Values(
        // stride 1 with 'same' padding, single tile
        std::make_tuple(std::size_t{4}, std::size_t{8}, std::size_t{3}, std::size_t{3},
                        std::size_t{1}, std::size_t{1}),
        // stride 1, input too large for one polynomial -> spatial tiling
        std::make_tuple(std::size_t{2}, std::size_t{40}, std::size_t{2}, std::size_t{3},
                        std::size_t{1}, std::size_t{1}),
        // stride 2, 3x3 kernel (4 phases)
        std::make_tuple(std::size_t{4}, std::size_t{12}, std::size_t{3}, std::size_t{3},
                        std::size_t{2}, std::size_t{1}),
        // stride 2, 1x1 downsample (single phase)
        std::make_tuple(std::size_t{6}, std::size_t{10}, std::size_t{4}, std::size_t{1},
                        std::size_t{2}, std::size_t{0}),
        // stride 2, 7x7 stem kernel (ragged phase kernels)
        std::make_tuple(std::size_t{3}, std::size_t{14}, std::size_t{2}, std::size_t{7},
                        std::size_t{2}, std::size_t{3}),
        // stride 4 exceeds kernel: only k^2 phases carry taps
        std::make_tuple(std::size_t{2}, std::size_t{16}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{1})));

TEST(ConvRunner, SpatialTilingUsesMultipleHConvs) {
  Fixture f;
  std::mt19937_64 rng(9);
  const tensor::Tensor3 x = tensor::random_activations(2, 40, 40, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(1, 2, 3, 4, rng);
  const ConvRunnerResult r = f.runner.run(x, w, 1, 0);
  EXPECT_GT(r.hconv_calls, 1u);  // 40x40 patch cannot fit a 1024-degree poly
  EXPECT_EQ(r.reconstruct(f.ctx.params().t).data(), tensor::conv2d(x, w, {1, 0}).data());
}

TEST(ConvRunner, StridePhasesShareNoExtraRound) {
  // The stride decomposition sums *shares* locally: communication equals the
  // sum of the phases' ciphertext traffic, nothing more.
  Fixture f;
  std::mt19937_64 rng(10);
  const tensor::Tensor3 x = tensor::random_activations(3, 8, 8, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(2, 3, 3, 4, rng);
  const ConvRunnerResult r = f.runner.run(x, w, 2, 1);
  EXPECT_EQ(r.hconv_calls, 4u);  // min(k, s)^2 = 4 phases, one tile each
  EXPECT_EQ(r.bytes_client_to_server, 4 * ciphertext_bytes(f.ctx.params()));
}

// Pre-fix, the stride decomposition derived the phase grid and the output
// dims from kernel_h alone, so any strided run of a rectangular kernel
// (kh != kw) produced wrong shapes/values. The per-axis decomposition must
// match the direct conv for both orientations.
TEST(ConvRunner, StridedRectangularKernelMatchesDirectConv) {
  Fixture f;
  std::mt19937_64 rng(0x7ec7);
  const tensor::Tensor3 x = tensor::random_activations(2, 7, 7, 4, rng);
  for (const auto& [kh, kw] : {std::pair<std::size_t, std::size_t>{1, 3}, {3, 1}, {2, 3}}) {
    const tensor::Tensor4 w = tensor::random_weights(2, 2, kh, kw, 4, rng);
    for (const std::size_t stride : {2, 3}) {
      const ConvRunnerResult r = f.runner.run(x, w, stride, /*pad=*/1);
      const tensor::Tensor3 expect = tensor::conv2d(x, w, {stride, 1});
      const tensor::Tensor3 got = r.reconstruct(f.ctx.params().t);
      EXPECT_EQ(got.height(), expect.height()) << kh << "x" << kw << " s" << stride;
      EXPECT_EQ(got.width(), expect.width()) << kh << "x" << kw << " s" << stride;
      EXPECT_EQ(got.data(), expect.data()) << kh << "x" << kw << " s" << stride;

      // The prepared-plan path shares the decomposition.
      const auto plan = f.runner.prepare(2, 7, 7, w, stride, 1);
      const ConvRunnerResult planned = f.runner.run(x, *plan);
      EXPECT_EQ(planned.reconstruct(f.ctx.params().t).data(), expect.data());
    }
  }
}

TEST(ConvRunner, RejectsZeroStride) {
  Fixture f;
  const tensor::Tensor3 x(1, 4, 4);
  const tensor::Tensor4 w(1, 1, 1, 1);
  EXPECT_THROW(f.runner.run(x, w, 0, 0), std::invalid_argument);
}

TEST(ConvRunner, RejectsChannelMismatch) {
  Fixture f;
  std::mt19937_64 rng(12);
  const tensor::Tensor3 x = tensor::random_activations(3, 6, 6, 4, rng);
  const tensor::Tensor4 w = tensor::random_weights(2, 2, 3, 4, rng);
  EXPECT_THROW(f.runner.run(x, w, 1, 1), std::invalid_argument);
  EXPECT_THROW(f.runner.run(x, w, 2, 1), std::invalid_argument);
}

/// FNV-1a over 64-bit share values, little-endian byte order.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(u64 v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t digest(const ConvRunnerResult& r) {
  Fnv1a f;
  for (const tensor::i64 v : r.client_share.data()) f.add(static_cast<u64>(v));
  for (const tensor::i64 v : r.server_share.data()) f.add(static_cast<u64>(v));
  return f.h;
}

std::uint64_t digest(const HConvResult& r) {
  Fnv1a f;
  for (const auto& channel : r.client_share) {
    for (const u64 v : channel) f.add(v);
  }
  for (const auto& channel : r.server_share) {
    for (const u64 v : channel) f.add(v);
  }
  return f.h;
}

std::uint64_t digest(const HConvProtocol::MatVecResult& r) {
  Fnv1a f;
  for (const u64 v : r.client_share) f.add(v);
  for (const u64 v : r.server_share) f.add(v);
  return f.h;
}

// Served shares pinned across commits. Every other bit-identity test
// compares two paths of the same build, so a change that moves both alike
// (a stream id, a mask draw, a decomposition) passes them; these constants
// were recorded once and must not move. The parameters are
// bench_network_serve's (N = 2048, t = 2^17, 44-bit q, 4-bit operands), and
// every conv case certifies proven on every backend: each decryption is
// exact, so the shares do not depend on floating-point rounding and all
// three backends produce the same digest. A digest change therefore means a
// stream or decomposition change.
TEST(ConvRunner, SharesMatchRecordedDigests) {
  const bfv::BfvContext ctx(bfv::BfvParams::create(2048, 17, 44));
  const u64 t = ctx.params().t;
  struct Layer {
    const char* name;
    std::size_t c, hw, out_c, k, stride, pad;
    std::uint64_t want;
  };
  const Layer layers[] = {
      {"stride-2 padded, 4 live phases", 3, 9, 2, 3, 2, 1, 0x1b48596b1b0ebe56ULL},
      {"stride-1 spatially tiled", 1, 46, 2, 3, 1, 1, 0x4b5b6c1a1f08f97dULL},
      {"1x1 over 2 channel tiles", 40, 8, 3, 1, 1, 0, 0x5e9f9877ef69fdb6ULL},
  };
  constexpr std::uint64_t kWantStream = 0x1ae115ce0cd21bb8ULL;  // uncached run_stream
  constexpr std::uint64_t kWantMatVec = 0x69004c34bbbd5a73ULL;  // 512 -> 37 run_matvec
  const std::size_t in_f = 512, out_f = 37;

  core::ThreadPool pool(3);
  for (const bfv::PolyMulBackend backend :
       {bfv::PolyMulBackend::kNtt, bfv::PolyMulBackend::kFft, bfv::PolyMulBackend::kApproxFft}) {
    std::optional<fft::FxpFftConfig> cfg;
    if (backend == bfv::PolyMulBackend::kApproxFft) {
      cfg = core::high_accuracy_approx_config(ctx.params().n, t);
    }
    HConvProtocol serial_proto(ctx, backend, cfg, 2024);
    HConvProtocol pooled_proto(ctx, backend, cfg, 2024);
    ConvRunner serial(serial_proto);
    ConvRunner pooled(pooled_proto, &pool);
    const int b = static_cast<int>(backend);

    std::mt19937_64 rng(5150);
    for (const Layer& l : layers) {
      const tensor::Tensor3 x = tensor::random_activations(l.c, l.hw, l.hw, 4, rng);
      const tensor::Tensor4 w = tensor::random_weights(l.out_c, l.c, l.k, 4, rng);
      ASSERT_EQ(certify_conv(ctx.params(), backend, cfg, l.c, l.hw, l.hw, w, l.stride, l.pad)
                    .overall.verdict,
                analysis::PipelineVerdict::kProvenCorrectDecryption)
          << l.name << " backend " << b;
      const ConvRunnerResult r = serial.run(x, w, l.stride, l.pad, 7ULL << 32);
      EXPECT_EQ(r.reconstruct(t).data(), tensor::conv2d(x, w, {l.stride, l.pad}).data())
          << l.name << " backend " << b;
      // Phases, spatial tiles or channel tiles: several ciphertexts each.
      EXPECT_GT(r.bytes_client_to_server, ciphertext_bytes(ctx.params())) << l.name;
      EXPECT_EQ(digest(r), l.want) << l.name << " backend " << b;
      EXPECT_EQ(digest(pooled.run(x, w, l.stride, l.pad, 7ULL << 32)), l.want)
          << l.name << " backend " << b << " pooled";
      const auto plan = pooled.prepare(l.c, l.hw, l.hw, w, l.stride, l.pad);
      EXPECT_EQ(digest(pooled.run(x, *plan, 7ULL << 32)), l.want)
          << l.name << " backend " << b << " planned";
    }

    const tensor::Tensor3 x = tensor::random_activations(40, 8, 8, 4, rng);
    const tensor::Tensor4 w = tensor::random_weights(2, 40, 3, 4, rng);
    ASSERT_EQ(certify_conv(ctx.params(), backend, cfg, 40, 8, 8, w, 1, 0).overall.verdict,
              analysis::PipelineVerdict::kProvenCorrectDecryption)
        << "run_stream backend " << b;
    EXPECT_EQ(digest(serial_proto.run_stream(x, w, 3)), kWantStream) << "run_stream backend " << b;
    EXPECT_EQ(digest(pooled_proto.run_stream(x, w, 3)), kWantStream) << "run_stream backend " << b;

    std::uniform_int_distribution<i64> wdist(-7, 7), xdist(0, 15);
    std::vector<i64> fw(in_f * out_f), fx(in_f);
    for (auto& v : fw) v = wdist(rng);
    for (auto& v : fx) v = xdist(rng);
    const auto mv = serial_proto.run_matvec(fx, fw, out_f);
    EXPECT_EQ(mv.reconstruct(t), tensor::linear(fx, fw, out_f)) << "run_matvec backend " << b;
    EXPECT_EQ(digest(mv), kWantMatVec) << "run_matvec backend " << b;
    EXPECT_EQ(digest(pooled_proto.run_matvec(fx, fw, out_f)), kWantMatVec)
        << "run_matvec backend " << b << " pooled";
  }
}

}  // namespace
}  // namespace flash::protocol
