// SIMD/scalar differential tests: every vector kernel must be bit-identical
// to its scalar fallback (the dispatch level is purely a performance choice).
// Exercises the corpus degrees of the PR-2 differential oracle: dense and
// sparse inputs, the negacyclic twist, the double FFT, and RNS pointwise
// mulmod including edge residues. Skips the comparisons on CPUs without AVX2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "encoding/encoder.hpp"
#include "fft/complex_fft.hpp"
#include "fft/fxp_fft.hpp"
#include "fft/negacyclic.hpp"
#include "fft/spectral.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/modular.hpp"
#include "hemath/ntt.hpp"
#include "hemath/pointwise.hpp"
#include "hemath/pow2.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd.hpp"

namespace flash {
namespace {

using fft::cplx;
using hemath::i64;
using hemath::u64;
using hemath::simd::ScopedSimdLevel;
using hemath::simd::SimdLevel;

bool has_avx2() { return hemath::simd::cpu_has_avx2(); }

std::vector<cplx> random_complex(std::size_t m, std::mt19937_64& rng, int mag) {
  std::uniform_int_distribution<int> dist(-mag, mag);
  std::vector<cplx> a(m);
  for (auto& x : a) x = {static_cast<double>(dist(rng)), static_cast<double>(dist(rng))};
  return a;
}

std::vector<double> sparse_reals(std::size_t n, std::mt19937_64& rng, int nonzeros) {
  std::vector<double> a(n, 0.0);
  std::uniform_int_distribution<int> dist(-7, 7);
  for (int i = 0; i < nonzeros; ++i) a[rng() % n] = static_cast<double>(dist(rng));
  return a;
}

void expect_bit_identical(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical modulo ±0.
    EXPECT_EQ(a[i].real(), b[i].real()) << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << i;
  }
}

TEST(SimdKernels, FxpFftScalarVsAvx2BitIdenticalAcrossCorpus) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(101);
  for (std::size_t m : {16u, 64u, 256u, 1024u, 4096u}) {
    fft::FxpFftConfig cfg = core::default_approx_config(m * 2, 1u << 10);
    fft::FxpFft fxp(m, cfg);
    ASSERT_TRUE(fxp.uses_narrow_path()) << m;
    const auto dense = random_complex(m, rng, 8);
    auto sparse = std::vector<cplx>(m, cplx{0.0, 0.0});
    for (std::size_t i = 0; i < m; i += 17) sparse[i] = {3.0, -2.0};
    for (const auto& input : {dense, sparse}) {
      fft::FxpFftStats scalar_stats, avx2_stats;
      std::vector<cplx> scalar_out, avx2_out;
      {
        ScopedSimdLevel level(SimdLevel::kScalar);
        scalar_out = fxp.forward(input, &scalar_stats);
      }
      {
        ScopedSimdLevel level(SimdLevel::kAvx2);
        avx2_out = fxp.forward(input, &avx2_stats);
      }
      expect_bit_identical(scalar_out, avx2_out);
      // Stats must agree too: both paths execute the same arithmetic.
      EXPECT_EQ(scalar_stats.butterflies, avx2_stats.butterflies) << m;
      EXPECT_EQ(scalar_stats.shift_add_terms, avx2_stats.shift_add_terms) << m;
      EXPECT_EQ(scalar_stats.saturations, avx2_stats.saturations) << m;
      ASSERT_EQ(scalar_stats.stage_peak_mantissa.size(), avx2_stats.stage_peak_mantissa.size());
      for (std::size_t s = 0; s < scalar_stats.stage_peak_mantissa.size(); ++s) {
        EXPECT_EQ(scalar_stats.stage_peak_mantissa[s], avx2_stats.stage_peak_mantissa[s])
            << m << " stage " << s;
      }
    }
  }
}

TEST(SimdKernels, FxpInverseScalarVsAvx2BitIdentical) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(102);
  const std::size_t m = 512;
  fft::FxpFft fxp(m, core::default_approx_config(m * 2, 1u << 10));
  const auto input = random_complex(m, rng, 6);
  std::vector<cplx> scalar_out, avx2_out;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    scalar_out = fxp.inverse(input);
  }
  {
    ScopedSimdLevel level(SimdLevel::kAvx2);
    avx2_out = fxp.inverse(input);
  }
  expect_bit_identical(scalar_out, avx2_out);
}

TEST(SimdKernels, NegacyclicFxpTransformScalarVsAvx2BitIdentical) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(103);
  for (std::size_t n : {128u, 1024u, 8192u}) {
    fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
    const auto a = sparse_reals(n, rng, 72);
    std::vector<cplx> scalar_spec, avx2_spec;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      scalar_spec = fxp.forward(a);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      avx2_spec = fxp.forward(a);
    }
    expect_bit_identical(scalar_spec, avx2_spec);
    // Round-trip through the inverse stays identical as well.
    std::vector<double> scalar_back, avx2_back;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      scalar_back = fxp.inverse(scalar_spec);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      avx2_back = fxp.inverse(avx2_spec);
    }
    ASSERT_EQ(scalar_back.size(), avx2_back.size());
    for (std::size_t i = 0; i < scalar_back.size(); ++i) {
      EXPECT_EQ(scalar_back[i], avx2_back[i]) << n << " @" << i;
    }
  }
}

TEST(SimdKernels, DoubleFftScalarVsAvx2BitIdentical) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(104);
  for (std::size_t m : {8u, 64u, 512u, 2048u}) {
    fft::FftPlan plan(m, +1);
    const auto input = random_complex(m, rng, 100);
    std::vector<cplx> scalar_out = input, avx2_out = input;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      plan.forward(scalar_out);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      plan.forward(avx2_out);
    }
    expect_bit_identical(scalar_out, avx2_out);
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      plan.inverse(scalar_out);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      plan.inverse(avx2_out);
    }
    expect_bit_identical(scalar_out, avx2_out);
  }
}

TEST(SimdKernels, PointwiseMulmodScalarVsAvx2Exact) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(105);
  for (int bits : {30, 49, 61}) {
    const std::size_t n = 1024;
    const u64 q = hemath::find_ntt_prime(bits, n);
    std::vector<u64> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng() % q;
      b[i] = rng() % q;
    }
    // Edge residues: 0, 1, q-1 in adjacent lanes.
    a[0] = 0; b[0] = q - 1;
    a[1] = q - 1; b[1] = q - 1;
    a[2] = 1; b[2] = q - 1;
    a[3] = q - 1; b[3] = 1;
    std::vector<u64> scalar_c(n), avx2_c(n);
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      hemath::pointwise_mulmod(a.data(), b.data(), scalar_c.data(), n, q);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      hemath::pointwise_mulmod(a.data(), b.data(), avx2_c.data(), n, q);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_c[i], avx2_c[i]) << bits << " @" << i;
      ASSERT_EQ(scalar_c[i], hemath::mul_mod(a[i], b[i], q)) << bits << " @" << i;
    }
    // Accumulating variant.
    std::vector<u64> scalar_acc(n), avx2_acc(n);
    for (std::size_t i = 0; i < n; ++i) scalar_acc[i] = avx2_acc[i] = rng() % q;
    const std::vector<u64> acc0 = scalar_acc;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      hemath::pointwise_mulmod_accumulate(scalar_acc.data(), a.data(), b.data(), n, q);
    }
    {
      ScopedSimdLevel level(SimdLevel::kAvx2);
      hemath::pointwise_mulmod_accumulate(avx2_acc.data(), a.data(), b.data(), n, q);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_acc[i], avx2_acc[i]) << bits << " @" << i;
      ASSERT_EQ(scalar_acc[i],
                hemath::add_mod(acc0[i], hemath::mul_mod(a[i], b[i], q), q))
          << bits << " @" << i;
    }
  }
}

// --- batched SoA transforms --------------------------------------------------
//
// Every batched kernel must be bit-identical to a loop of the single-
// polynomial path at every dispatch level. Batch sizes 1..9 cover the whole
// remainder matrix (ARCHITECTURE.md §11): the scalar passthrough (1), the
// AVX2 group and its padded remainders (2..4), and the AVX-512 group with
// the drop-to-AVX2 and zero-padded remainders (5..9).

/// The levels this host can actually run (AVX-512 skips gracefully).
std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (hemath::simd::cpu_has_avx2()) levels.push_back(SimdLevel::kAvx2);
  if (hemath::simd::cpu_has_avx512()) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

std::vector<std::vector<u64>> random_residues(std::size_t batch, std::size_t n, u64 q,
                                              std::mt19937_64& rng) {
  std::vector<std::vector<u64>> polys(batch);
  for (auto& poly : polys) {
    poly.resize(n);
    for (auto& x : poly) x = rng() % q;
  }
  // Edge residues in the first lanes.
  if (n >= 4 && !polys.empty()) {
    polys[0][0] = 0;
    polys[0][1] = 1;
    polys[0][2] = q - 1;
    polys[0][3] = q - 1;
  }
  return polys;
}

void check_ntt_batch_matches_singles(const hemath::NttTables& tables, std::size_t n, u64 q) {
  std::mt19937_64 rng(n * 31 + q % 1024);
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    const auto input = random_residues(batch, n, q, rng);

    // Reference: per-polynomial transforms at the scalar level.
    std::vector<std::vector<u64>> fwd_ref = input;
    std::vector<std::vector<u64>> inv_ref = input;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      for (auto& poly : fwd_ref) tables.forward(poly);
      for (auto& poly : inv_ref) tables.inverse(poly);
    }

    for (SimdLevel lvl : supported_levels()) {
      ScopedSimdLevel level(lvl);
      std::vector<std::vector<u64>> fwd = input;
      std::vector<std::vector<u64>> inv = input;
      std::vector<u64*> fwd_ptrs(batch), inv_ptrs(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        fwd_ptrs[b] = fwd[b].data();
        inv_ptrs[b] = inv[b].data();
      }
      tables.forward_batch_into(fwd_ptrs);
      tables.inverse_batch_into(inv_ptrs);
      for (std::size_t b = 0; b < batch; ++b) {
        ASSERT_EQ(fwd[b], fwd_ref[b]) << "fwd n=" << n << " batch=" << batch << " lane=" << b
                                      << " level=" << hemath::simd::simd_level_name(lvl);
        ASSERT_EQ(inv[b], inv_ref[b]) << "inv n=" << n << " batch=" << batch << " lane=" << b
                                      << " level=" << hemath::simd::simd_level_name(lvl);
      }
    }
  }
}

TEST(SimdBatchKernels, NttBatchBitIdenticalToSinglesAcrossLevels) {
  for (std::size_t n : {64u, 256u, 4096u}) {
    const u64 q = hemath::find_ntt_prime(59, n);
    check_ntt_batch_matches_singles(hemath::NttTables(q, n), n, q);
  }
}

TEST(SimdBatchKernels, NttBatchLargeModulusFallbackStillMatches) {
  // q >= 2^61 is outside the Harvey lazy bound: the batch entry points fall
  // back to the per-polynomial loop and must stay bit-identical.
  const std::size_t n = 256;
  const u64 q = hemath::next_prime_congruent(u64{1} << 61, 2 * n);
  ASSERT_GE(q, u64{1} << 61);
  check_ntt_batch_matches_singles(hemath::NttTables(q, n), n, q);
}

TEST(SimdBatchKernels, FxpFftBatchBitIdenticalToSinglesWithStats) {
  std::mt19937_64 rng(404);
  const std::size_t m = 128;
  fft::FxpFft fxp(m, core::default_approx_config(m * 2, 1u << 10));
  ASSERT_TRUE(fxp.uses_narrow_path());
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    std::vector<std::vector<cplx>> input(batch);
    for (auto& v : input) v = random_complex(m, rng, 8);

    std::vector<std::vector<cplx>> ref(batch, std::vector<cplx>(m));
    fft::FxpFftStats ref_stats;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      for (std::size_t b = 0; b < batch; ++b) fxp.forward_into(input[b], ref[b], &ref_stats);
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
      fft::FxpFftStats stats;
      fxp.forward_batch_into(std::span<const cplx* const>(in_ptrs),
                             std::span<cplx* const>(out_ptrs), &stats);
      for (std::size_t b = 0; b < batch; ++b) expect_bit_identical(out[b], ref[b]);
      // Stats are part of the contract: the energy model must not notice
      // whether transforms ran batched or one at a time.
      EXPECT_EQ(stats.butterflies, ref_stats.butterflies) << batch;
      EXPECT_EQ(stats.shift_add_terms, ref_stats.shift_add_terms) << batch;
      EXPECT_EQ(stats.saturations, ref_stats.saturations) << batch;
      ASSERT_EQ(stats.stage_peak_mantissa.size(), ref_stats.stage_peak_mantissa.size());
      for (std::size_t s = 0; s < stats.stage_peak_mantissa.size(); ++s) {
        EXPECT_EQ(stats.stage_peak_mantissa[s], ref_stats.stage_peak_mantissa[s]) << batch << " " << s;
      }

      // Inverse batch against inverse singles on the forward outputs.
      std::vector<std::vector<cplx>> inv_ref(batch, std::vector<cplx>(m));
      {
        ScopedSimdLevel inner(SimdLevel::kScalar);
        for (std::size_t b = 0; b < batch; ++b) fxp.inverse_into(ref[b], inv_ref[b]);
      }
      std::vector<std::vector<cplx>> inv(batch, std::vector<cplx>(m));
      std::vector<const cplx*> spec_ptrs(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        spec_ptrs[b] = ref[b].data();
        out_ptrs[b] = inv[b].data();
      }
      fxp.inverse_batch_into(std::span<const cplx* const>(spec_ptrs),
                             std::span<cplx* const>(out_ptrs));
      for (std::size_t b = 0; b < batch; ++b) expect_bit_identical(inv[b], inv_ref[b]);
    }
  }
}

TEST(SimdBatchKernels, NegacyclicFxpBatchBitIdenticalToSingles) {
  std::mt19937_64 rng(405);
  const std::size_t n = 256;
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    std::vector<std::vector<double>> a(batch);
    for (auto& v : a) v = sparse_reals(n, rng, 40);

    std::vector<std::vector<cplx>> spec_ref(batch, std::vector<cplx>(n / 2));
    std::vector<std::vector<double>> back_ref(batch, std::vector<double>(n));
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      for (std::size_t b = 0; b < batch; ++b) {
        fxp.forward_into(a[b], spec_ref[b]);
        fxp.inverse_into(spec_ref[b], back_ref[b]);
      }
    }

    for (SimdLevel lvl : supported_levels()) {
      ScopedSimdLevel level(lvl);
      std::vector<std::vector<cplx>> spec(batch, std::vector<cplx>(n / 2));
      std::vector<const double*> a_ptrs(batch);
      std::vector<cplx*> spec_ptrs(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        a_ptrs[b] = a[b].data();
        spec_ptrs[b] = spec[b].data();
      }
      fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                             std::span<cplx* const>(spec_ptrs));
      for (std::size_t b = 0; b < batch; ++b) expect_bit_identical(spec[b], spec_ref[b]);

      std::vector<std::vector<double>> back(batch, std::vector<double>(n));
      std::vector<const cplx*> cspec_ptrs(batch);
      std::vector<double*> back_ptrs(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        cspec_ptrs[b] = spec[b].data();
        back_ptrs[b] = back[b].data();
      }
      fxp.inverse_batch_into(std::span<const cplx* const>(cspec_ptrs),
                             std::span<double* const>(back_ptrs));
      for (std::size_t b = 0; b < batch; ++b) {
        ASSERT_EQ(back[b], back_ref[b]) << "batch=" << batch << " lane=" << b;
      }
    }
  }
}

TEST(SimdBatchKernels, EngineWeightBatchBitIdenticalAtServedConfig) {
  // The served kApproxFft weight transform: encoded 4-bit conv weights at
  // N = 4096, t = 2^20 and high_accuracy_approx_config, batched through
  // PolyMulEngine as HConvProtocol::prepare_weights batches them.
  const auto params = bfv::BfvParams::create(4096, 20, 49);
  const bfv::BfvContext ctx(params);
  const auto cfg = core::high_accuracy_approx_config(params.n, params.t);
  // Off the narrow path forward_batch_into runs one transform at a time:
  // still bit-identical, but the batching gains nothing.
  ASSERT_TRUE(fft::shared_fxp_transform(params.n, cfg)->fft().uses_narrow_path());
  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kApproxFft, cfg);

  // 64 channels of 10x10 under a 3x3 kernel: 40 channels per polynomial, so
  // output channel m's weights span two channel tiles.
  const encoding::ConvEncoder enc(params.n, 64, 10, 10, 3);
  ASSERT_EQ(enc.geometry().channel_tiles(), 2u);
  tensor::Tensor4 w(5, 64, 3, 3);
  std::mt19937_64 rng(406);
  for (auto& v : w.data()) v = static_cast<i64>(rng() % 15) - 7;
  std::vector<bfv::Plaintext> pts;
  for (std::size_t m = 0; m < 5; ++m) {
    for (std::size_t tile = 0; tile < 2; ++tile) {
      bfv::Plaintext pt = ctx.make_plaintext();
      const std::vector<i64> coeffs = enc.encode_weight(w, m, tile);
      for (std::size_t i = 0; i < params.n; ++i) {
        pt.poly[i] = hemath::from_signed(coeffs[i], params.t);
      }
      pts.push_back(std::move(pt));
    }
  }

  std::vector<bfv::PlainSpectrum> ref;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    for (std::size_t b = 0; b < 9; ++b) ref.push_back(engine.transform_plain(pts[b]));
  }
  for (SimdLevel lvl : supported_levels()) {
    ScopedSimdLevel level(lvl);
    for (std::size_t batch = 1; batch <= 9; ++batch) {
      const std::uint64_t before = engine.counters().plain_transforms;
      const std::vector<bfv::PlainSpectrum> out =
          engine.transform_plain_batch(std::span<const bfv::Plaintext>(pts).first(batch));
      EXPECT_EQ(engine.counters().plain_transforms - before, batch);
      ASSERT_EQ(out.size(), batch);
      for (std::size_t b = 0; b < batch; ++b) {
        SCOPED_TRACE(std::string(hemath::simd::simd_level_name(lvl)) + " batch " +
                     std::to_string(batch) + " lane " + std::to_string(b));
        EXPECT_EQ(out[b].backend, bfv::PolyMulBackend::kApproxFft);
        expect_bit_identical(out[b].fft, ref[b].fft);
      }
    }
  }
}

// --- Spectral point-wise kernels (fft/spectral.hpp) -------------------------

bool same_bits(const cplx& a, const cplx& b) { return std::memcmp(&a, &b, sizeof(cplx)) == 0; }

/// A spectrum at served magnitudes (ciphertext side up to 2^55, weight side
/// up to 2^10), with ±0.0 and large and tiny exponents planted; every
/// product and sum stays finite.
std::vector<cplx> served_spectrum(std::size_t half, double scale, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-scale, scale);
  std::vector<cplx> a(half);
  for (auto& x : a) x = {dist(rng), dist(rng)};
  const double planted[] = {0.0, -0.0, std::ldexp(1.5, 300), -std::ldexp(1.25, 280),
                            std::ldexp(1.0, -300), -std::ldexp(1.75, -320)};
  for (std::size_t j = 0; j < 24 && j < half; ++j) {
    const std::size_t k = rng() % half;
    a[k] = {planted[rng() % 6], planted[rng() % 6]};
  }
  return a;
}

TEST(SimdBatchKernels, SpectralMacBlockBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(2301);
  // half = 6 runs the vector kernels' scalar tails.
  for (std::size_t half : {std::size_t{6}, std::size_t{1024}, std::size_t{2048}}) {
    for (std::size_t components : {std::size_t{1}, std::size_t{2}}) {
      for (std::size_t outputs = 1; outputs <= 5; ++outputs) {
        std::vector<std::vector<cplx>> ct, w, init;
        for (std::size_t c = 0; c < components; ++c) {
          ct.push_back(served_spectrum(half, 0x1p55, rng));
        }
        for (std::size_t b = 0; b < outputs; ++b) w.push_back(served_spectrum(half, 0x1p10, rng));
        for (std::size_t s = 0; s < components * outputs; ++s) {
          init.push_back(served_spectrum(half, 0x1p70, rng));
        }
        // The reference is the loop the kernel replaced: acc += c * w.
        std::vector<std::vector<cplx>> want = init;
        for (std::size_t c = 0; c < components; ++c) {
          for (std::size_t b = 0; b < outputs; ++b) {
            for (std::size_t k = 0; k < half; ++k) want[c * outputs + b][k] += ct[c][k] * w[b][k];
          }
        }
        std::vector<const cplx*> ct_ptr, w_ptr;
        for (const auto& v : ct) ct_ptr.push_back(v.data());
        for (const auto& v : w) w_ptr.push_back(v.data());
        for (SimdLevel lvl : supported_levels()) {
          ScopedSimdLevel level(lvl);
          std::vector<std::vector<cplx>> got = init;
          std::vector<cplx*> acc_ptr;
          for (auto& v : got) acc_ptr.push_back(v.data());
          fft::spectral_mac_block(ct_ptr, w_ptr, acc_ptr, half);
          // A remainder block: outputs split as a block of one and the rest.
          std::vector<std::vector<cplx>> split = init;
          for (std::size_t first : {std::size_t{0}, std::size_t{1}}) {
            const std::size_t count = first == 0 ? 1 : outputs - 1;
            if (count == 0) continue;
            std::vector<cplx*> part;
            for (std::size_t c = 0; c < components; ++c) {
              for (std::size_t b = first; b < first + count; ++b) {
                part.push_back(split[c * outputs + b].data());
              }
            }
            const auto w_part = std::span<const cplx* const>(w_ptr).subspan(first, count);
            fft::spectral_mac_block(ct_ptr, w_part, part, half);
          }
          for (std::size_t s = 0; s < want.size(); ++s) {
            for (std::size_t k = 0; k < half; ++k) {
              ASSERT_TRUE(same_bits(got[s][k], want[s][k]))
                  << hemath::simd::simd_level_name(lvl) << " half " << half << " components "
                  << components << " outputs " << outputs << " sum " << s << " k " << k;
              ASSERT_TRUE(same_bits(split[s][k], want[s][k]))
                  << hemath::simd::simd_level_name(lvl) << " split block, sum " << s;
            }
          }
        }
      }
    }
  }
  const cplx* one[] = {nullptr};
  cplx* sums[] = {nullptr, nullptr};
  EXPECT_THROW(fft::spectral_mac_block({}, one, {}, 4), std::invalid_argument);
  EXPECT_THROW(fft::spectral_mac_block(one, one, sums, 4), std::invalid_argument);
}

TEST(SimdBatchKernels, InverseRoundingMatchesScalarRuleAcrossLevels) {
  // The rule: from_signed(llround(x), q), which the division-free rounding
  // reproduces at every level.
  const auto rule = [](double x, u64 q) { return hemath::from_signed(std::llround(x), q); };
  std::mt19937_64 rng(2302);
  const double inf = std::numeric_limits<double>::infinity();
  for (const u64 q : {u64{3}, u64{17}, u64{4093}, u64{65537}, (u64{1} << 44) - 21,
                      hemath::find_ntt_prime(49, 4096)}) {
    std::vector<double> xs = {0.0, -0.0, 0.5, -0.5, 1.5, -2.5, inf, -inf,
                              std::numeric_limits<double>::quiet_NaN(), 0x1p62, -0x1p62,
                              std::nextafter(0x1p62, 0.0), -std::nextafter(0x1p62, 0.0), 0x1p63,
                              0x1p70, -0x1p70};
    const auto qd = static_cast<double>(q);
    const auto unit = [&] { return std::ldexp(static_cast<double>(rng() >> 11), -53); };
    for (int j = 0; j < 4000; ++j) {
      // Multiples of q and the exact halves around them (below 2^52, where
      // halves exist), and the double just below each half.
      const double k = std::floor(unit() * (0x1p52 / qd));
      for (const double base : {k * qd, k * qd + 1, k * qd - 1}) {
        for (const double x : {base, base + 0.5, base - 0.5, std::nextafter(base + 0.5, 0.0),
                               std::nextafter(base - 0.5, 0.0)}) {
          xs.push_back(x);
          xs.push_back(-x);
        }
      }
      // Multiples of q up to 2^62, and magnitudes up to 2^70 (llround's path).
      const double far = std::floor(unit() * (0x1p62 / qd)) * qd;
      const double big = unit() * 0x1p70;
      for (const double x : {far, std::nextafter(far, 0.0), big}) {
        xs.push_back(x);
        xs.push_back(-x);
      }
    }
    std::vector<u64> want(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) want[i] = rule(xs[i], q);
    for (SimdLevel lvl : supported_levels()) {
      ScopedSimdLevel level(lvl);
      std::vector<u64> got(xs.size(), ~u64{0});
      fft::round_to_zq(xs, q, got.data());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << hemath::simd::simd_level_name(lvl) << " q " << q << " x "
                                   << xs[i];
      }
    }
  }

  // inverse_to_poly over a served product spectrum: one ring element at
  // every level.
  const auto params = bfv::BfvParams::create(4096, 20, 49);
  const bfv::BfvContext ctx(params);
  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kFft);
  hemath::Poly ct(params.q, params.n);
  for (std::size_t i = 0; i < params.n; ++i) ct[i] = rng() % params.q;
  std::vector<i64> wc(params.n, 0);
  for (int i = 0; i < 72; ++i) wc[rng() % params.n] = static_cast<i64>(rng() % 15) - 7;
  bfv::SpectralAccumulator acc;
  engine.multiply_accumulate(engine.transform_cipher_spectrum(ct),
                             engine.transform_plain(ctx.encode_signed(wc)), acc);
  hemath::Poly ref;
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    ref = engine.inverse_to_poly(acc.fft);
  }
  for (SimdLevel lvl : supported_levels()) {
    ScopedSimdLevel level(lvl);
    EXPECT_EQ(engine.inverse_to_poly(acc.fft).coeffs(), ref.coeffs())
        << hemath::simd::simd_level_name(lvl);
  }
}

// --- Z_{2^k} mask-reduce kernels --------------------------------------------
//
// The pow2 backend's pointwise/axpy kernels have AVX2 (split 32x32 mullo) and
// AVX-512 (native mullo64) paths; every level must be bit-identical to forced
// scalar over a corpus of widths covering the lane counts and their tails,
// with edge residues (0, 1, mask) planted in the first lanes.

TEST(SimdKernels, Pow2MaskReduceKernelsBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(517);
  for (const int k : {8, 32, 49, 64}) {
    const hemath::Pow2Ring ring(k);
    for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{9},
                                std::size_t{16}, std::size_t{17}, std::size_t{200}}) {
      std::vector<u64> a(n), b(n), acc0(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = ring.reduce(rng());
        b[i] = ring.reduce(rng());
        acc0[i] = ring.reduce(rng());
      }
      if (n >= 3) {
        a[0] = 0;
        a[1] = 1;
        a[2] = ring.mask;
        b[2] = ring.mask;
      }
      const u64 s = ring.reduce(rng());

      std::vector<u64> mul_ref(n), maccum_ref = acc0, add_ref = acc0, axpy_ref = acc0,
                       axpys_ref = acc0;
      {
        ScopedSimdLevel level(SimdLevel::kScalar);
        hemath::pointwise_mulmod_pow2(a.data(), b.data(), mul_ref.data(), n, ring);
        hemath::pointwise_mulmod_pow2_accumulate(maccum_ref.data(), a.data(), b.data(), n, ring);
        hemath::pointwise_add_pow2(add_ref.data(), a.data(), n, ring);
        hemath::axpy_wrap(axpy_ref.data(), a.data(), s, n);
        hemath::axpy_wrap_sub(axpys_ref.data(), a.data(), s, n);
      }
      for (SimdLevel lvl : supported_levels()) {
        ScopedSimdLevel level(lvl);
        std::vector<u64> mul(n), maccum = acc0, add = acc0, axpy = acc0, axpys = acc0;
        hemath::pointwise_mulmod_pow2(a.data(), b.data(), mul.data(), n, ring);
        hemath::pointwise_mulmod_pow2_accumulate(maccum.data(), a.data(), b.data(), n, ring);
        hemath::pointwise_add_pow2(add.data(), a.data(), n, ring);
        hemath::axpy_wrap(axpy.data(), a.data(), s, n);
        hemath::axpy_wrap_sub(axpys.data(), a.data(), s, n);
        const char* name = hemath::simd::simd_level_name(lvl);
        ASSERT_EQ(mul, mul_ref) << "k=" << k << " n=" << n << " " << name;
        ASSERT_EQ(maccum, maccum_ref) << "k=" << k << " n=" << n << " " << name;
        ASSERT_EQ(add, add_ref) << "k=" << k << " n=" << n << " " << name;
        ASSERT_EQ(axpy, axpy_ref) << "k=" << k << " n=" << n << " " << name;
        ASSERT_EQ(axpys, axpys_ref) << "k=" << k << " n=" << n << " " << name;
      }
    }
  }
}

TEST(SimdKernels, Pow2NegacyclicAndBatchBitIdenticalAcrossLevels) {
  std::mt19937_64 rng(518);
  const hemath::Pow2Ring ring(49);
  for (const std::size_t n : {std::size_t{32}, std::size_t{64}, std::size_t{256}}) {
    std::vector<u64> a(n), w(n, 0);
    for (auto& x : a) x = ring.reduce(rng());
    for (std::size_t j = 0; j < n; j += 11) w[j] = ring.from_signed(static_cast<i64>(j % 9) - 4);

    std::vector<u64> single_ref(n);
    std::vector<std::vector<u64>> lanes(5, a), batch_ref(5, std::vector<u64>(n));
    for (std::size_t l = 1; l < lanes.size(); ++l) {
      for (auto& x : lanes[l]) x = ring.reduce(rng());
    }
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      hemath::negacyclic_mul_pow2_into(a.data(), w.data(), single_ref.data(), n, ring);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        hemath::negacyclic_mul_pow2_into(lanes[l].data(), w.data(), batch_ref[l].data(), n, ring);
      }
    }
    for (SimdLevel lvl : supported_levels()) {
      ScopedSimdLevel level(lvl);
      std::vector<u64> single(n);
      hemath::negacyclic_mul_pow2_into(a.data(), w.data(), single.data(), n, ring);
      ASSERT_EQ(single, single_ref) << "n=" << n << " " << hemath::simd::simd_level_name(lvl);

      std::vector<std::vector<u64>> outs(lanes.size(), std::vector<u64>(n));
      std::vector<const u64*> in_ptrs(lanes.size());
      std::vector<u64*> out_ptrs(lanes.size());
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        in_ptrs[l] = lanes[l].data();
        out_ptrs[l] = outs[l].data();
      }
      hemath::negacyclic_mul_pow2_batch_into(in_ptrs, w.data(), out_ptrs, n, ring);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        ASSERT_EQ(outs[l], batch_ref[l])
            << "n=" << n << " lane=" << l << " " << hemath::simd::simd_level_name(lvl);
      }
    }
  }
}

// --- FLASH_FORCE_SIMD_LEVEL resolution --------------------------------------
//
// The env vars are read once at startup, so these tests drive the resolver
// directly with synthetic values. Contract: FLASH_FORCE_SIMD_LEVEL must parse
// and can only degrade, never grant a level the CPU lacks; unknown names are
// a hard configuration error.

TEST(SimdDispatchEnv, ParseSimdLevelAcceptsExactlyTheThreeNames) {
  using hemath::simd::parse_simd_level;
  ASSERT_TRUE(parse_simd_level("scalar").has_value());
  EXPECT_EQ(*parse_simd_level("scalar"), SimdLevel::kScalar);
  ASSERT_TRUE(parse_simd_level("avx2").has_value());
  EXPECT_EQ(*parse_simd_level("avx2"), SimdLevel::kAvx2);
  ASSERT_TRUE(parse_simd_level("avx512").has_value());
  EXPECT_EQ(*parse_simd_level("avx512"), SimdLevel::kAvx512);
  EXPECT_FALSE(parse_simd_level("").has_value());
  EXPECT_FALSE(parse_simd_level("AVX2").has_value());
  EXPECT_FALSE(parse_simd_level("sse4").has_value());
}

TEST(SimdDispatchEnv, ResolveHonorsEachForcedLevel) {
  using hemath::simd::detail::resolve_level;
  EXPECT_EQ(resolve_level("scalar", SimdLevel::kAvx512), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level("avx2", SimdLevel::kAvx512), SimdLevel::kAvx2);
  EXPECT_EQ(resolve_level("avx512", SimdLevel::kAvx512), SimdLevel::kAvx512);
}

TEST(SimdDispatchEnv, ResolveClampsToSupportedNeverUpgrades) {
  using hemath::simd::detail::resolve_level;
  // Asking for more than the CPU has degrades to the supported maximum.
  EXPECT_EQ(resolve_level("avx512", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(resolve_level("avx2", SimdLevel::kScalar), SimdLevel::kScalar);
  // Unset: the supported maximum stands.
  EXPECT_EQ(resolve_level(nullptr, SimdLevel::kAvx2), SimdLevel::kAvx2);
}

TEST(SimdDispatchEnv, ResolveRejectsUnknownLevelName) {
  using hemath::simd::detail::resolve_level;
  EXPECT_THROW((void)resolve_level("sse9", SimdLevel::kAvx512), std::invalid_argument);
  EXPECT_THROW((void)resolve_level("AVX2", SimdLevel::kAvx512), std::invalid_argument);
}

TEST(SimdKernels, ScopedScalarLevelPinsAndRestores) {
  // Whatever level is active, ScopedSimdLevel(kScalar) pins scalar and
  // restores the previous level on exit.
  const SimdLevel before = hemath::simd::active_simd_level();
  {
    ScopedSimdLevel level(SimdLevel::kScalar);
    EXPECT_EQ(hemath::simd::active_simd_level(), SimdLevel::kScalar);
  }
  EXPECT_EQ(hemath::simd::active_simd_level(), before);
}

}  // namespace
}  // namespace flash
