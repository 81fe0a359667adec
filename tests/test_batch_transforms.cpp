// Cross-level differential tier for the batched SoA transform entry points
// (ARCHITECTURE.md §11): transform_batch_into must be bit-identical to a
// loop of single-polynomial transforms, for every table type, at every
// dispatch level this host supports, across the kPolymul generator corpus.
// On machines without AVX-512 the kAvx512 leg degrades to the best supported
// level (see tests/README.md) — the batch-vs-singles property still holds.
#include <gtest/gtest.h>

#include <random>

#include "core/flash_accelerator.hpp"
#include "fft/fxp_fft.hpp"
#include "hemath/modular.hpp"
#include "hemath/ntt.hpp"
#include "hemath/simd.hpp"
#include "protocol/conv_runner.hpp"
#include "tensor/quant.hpp"
#include "testing/generators.hpp"

namespace flash {
namespace {

using fft::cplx;
using hemath::u64;
using hemath::simd::ScopedSimdLevel;
using hemath::simd::SimdLevel;

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (hemath::simd::cpu_has_avx2()) levels.push_back(SimdLevel::kAvx2);
  if (hemath::simd::cpu_has_avx512()) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Corpus-derived residue lanes: the case's ciphertext, its lifted weights,
/// and affine combinations of the two — enough lanes to cover the whole
/// remainder matrix (full 8-groups, the 4-lane drop and zero-padded tails).
std::vector<std::vector<u64>> corpus_lanes(const testing::PolymulCase& c, std::size_t batch) {
  const u64 q = c.params.q;
  const std::size_t n = c.params.n;
  std::vector<u64> w_lifted(n);
  for (std::size_t i = 0; i < n; ++i) {
    w_lifted[i] = c.w[i] >= 0 ? static_cast<u64>(c.w[i]) : q - static_cast<u64>(-c.w[i]);
  }
  std::vector<std::vector<u64>> lanes(batch, std::vector<u64>(n));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      lanes[b][i] = hemath::add_mod(c.ct[i], hemath::mul_mod(b, w_lifted[i], q), q);
    }
  }
  return lanes;
}

void check_batch_equals_singles(const hemath::NttTables& tables,
                                const std::vector<std::vector<u64>>& lanes) {
  const std::size_t batch = lanes.size();
  // Reference: a loop of single-polynomial transforms at the scalar level.
  std::vector<std::vector<u64>> fwd_ref = lanes;
  std::vector<std::vector<u64>> inv_ref = lanes;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    for (auto& l : fwd_ref) tables.forward(l);
    for (auto& l : inv_ref) tables.inverse(l);
  }
  for (SimdLevel lvl : supported_levels()) {
    ScopedSimdLevel level(lvl);
    std::vector<std::vector<u64>> fwd = lanes;
    std::vector<std::vector<u64>> inv = lanes;
    std::vector<u64*> fwd_ptrs(batch), inv_ptrs(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      fwd_ptrs[b] = fwd[b].data();
      inv_ptrs[b] = inv[b].data();
    }
    tables.forward_batch_into(fwd_ptrs);
    tables.inverse_batch_into(inv_ptrs);
    for (std::size_t b = 0; b < batch; ++b) {
      ASSERT_EQ(fwd[b], fwd_ref[b]) << "fwd batch=" << batch << " lane=" << b << " level="
                                    << hemath::simd::simd_level_name(lvl);
      ASSERT_EQ(inv[b], inv_ref[b]) << "inv batch=" << batch << " lane=" << b << " level="
                                    << hemath::simd::simd_level_name(lvl);
    }
  }
}

TEST(BatchTransforms, NttBatchEqualsSinglesOverPolymulCorpus) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const testing::PolymulCase c = testing::make_polymul_case({.seed = seed});
    SCOPED_TRACE(c.spec.describe());
    const hemath::NttTables ntt(c.params.q, c.params.n);
    for (std::size_t batch : {1u, 2u, 5u, 8u, 9u}) {
      check_batch_equals_singles(ntt, corpus_lanes(c, batch));
    }
  }
}

TEST(BatchTransforms, FxpFftBatchEqualsSinglesOverPolymulCorpus) {
  for (std::uint64_t seed : {5u, 6u}) {
    const testing::PolymulCase c = testing::make_polymul_case({.seed = seed});
    SCOPED_TRACE(c.spec.describe());
    const std::size_t m = c.params.n / 2;
    fft::FxpFft fxp(m, core::default_approx_config(c.params.n, c.params.t));
    if (!fxp.uses_narrow_path()) continue;
    for (std::size_t batch : {3u, 8u}) {
      // Small-magnitude complex lanes derived from the corpus residues.
      std::vector<std::vector<cplx>> input(batch, std::vector<cplx>(m));
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t i = 0; i < m; ++i) {
          input[b][i] = {static_cast<double>((c.ct[i] + b) % 15) - 7.0,
                         static_cast<double>(c.w[i % c.params.n])};
        }
      }
      std::vector<std::vector<cplx>> ref(batch, std::vector<cplx>(m));
      {
        ScopedSimdLevel level(SimdLevel::kScalar);
        for (std::size_t b = 0; b < batch; ++b) fxp.forward_into(input[b], ref[b]);
      }
      for (SimdLevel lvl : supported_levels()) {
        ScopedSimdLevel level(lvl);
        std::vector<std::vector<cplx>> out(batch, std::vector<cplx>(m));
        std::vector<const cplx*> in_ptrs(batch);
        std::vector<cplx*> out_ptrs(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          in_ptrs[b] = input[b].data();
          out_ptrs[b] = out[b].data();
        }
        fxp.forward_batch_into(std::span<const cplx* const>(in_ptrs),
                               std::span<cplx* const>(out_ptrs));
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t i = 0; i < m; ++i) {
            ASSERT_EQ(out[b][i].real(), ref[b][i].real()) << b << " " << i;
            ASSERT_EQ(out[b][i].imag(), ref[b][i].imag()) << b << " " << i;
          }
        }
      }
    }
  }
}

// The served conv path must produce the same shares, byte counts and unit
// counts at every dispatch level (the level must not leak into protocol
// outputs), request after request against one warm plan.
TEST(BatchTransforms, ConvRunnerRunBitIdenticalAcrossLevels) {
  bfv::BfvContext ctx(bfv::BfvParams::create(1024, 18, 46));
  protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kFft, std::nullopt, 71);
  protocol::ConvRunner runner(proto);

  std::mt19937_64 rng(909);
  const std::size_t c = 3, hw = 8, out_c = 2, k = 3;
  const tensor::Tensor4 w = tensor::random_weights(out_c, c, k, 4, rng);
  const auto plan = runner.prepare(c, hw, hw, w, /*stride=*/1, /*pad=*/1);

  std::vector<tensor::Tensor3> xs;
  std::vector<std::uint64_t> bases;
  for (std::size_t i = 0; i < 3; ++i) {
    xs.push_back(tensor::random_activations(c, hw, hw, 4, rng));
    bases.push_back(static_cast<std::uint64_t>(i) << 32);
  }

  std::vector<protocol::ConvRunnerResult> ref;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    for (std::size_t i = 0; i < xs.size(); ++i) ref.push_back(runner.run(xs[i], *plan, bases[i]));
  }
  for (SimdLevel lvl : supported_levels()) {
    ScopedSimdLevel level(lvl);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const protocol::ConvRunnerResult got = runner.run(xs[i], *plan, bases[i]);
      EXPECT_EQ(got.client_share.data(), ref[i].client_share.data()) << i;
      EXPECT_EQ(got.server_share.data(), ref[i].server_share.data()) << i;
      EXPECT_EQ(got.bytes_client_to_server, ref[i].bytes_client_to_server) << i;
      EXPECT_EQ(got.bytes_server_to_client, ref[i].bytes_server_to_client) << i;
      EXPECT_EQ(got.hconv_calls, ref[i].hconv_calls) << i;
    }
  }
}

}  // namespace
}  // namespace flash
