// Skip mode vs dense: the served kApproxFft weight transform runs only the
// live butterflies of each HConv unit's folded weight pattern. These tests
// pin it bit-identical to the dense fixed-point transform — spectra,
// saturation counts and per-stage peaks — at every SIMD level and batch
// size, and pin its op counters to the schedule it ran. The corpus is every
// distinct ResNet-18 conv unit at N = 4096 and the served config, plus
// configs that exercise the degenerate butterflies' rounding (nonzero stage
// shift), saturation, and the empty and full patterns.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <tuple>

#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "encoding/encoder.hpp"
#include "fft/fxp_fft.hpp"
#include "fft/negacyclic.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/modular.hpp"
#include "hemath/simd.hpp"
#include "protocol/conv_geometry.hpp"
#include "protocol/hconv_protocol.hpp"
#include "sparsefft/executor.hpp"
#include "sparsefft/planner.hpp"
#include "tensor/resnet.hpp"

namespace flash {
namespace {

using fft::cplx;
using hemath::i64;
using hemath::simd::ScopedSimdLevel;
using hemath::simd::SimdLevel;
using Polys = std::vector<std::vector<double>>;

std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (hemath::simd::cpu_has_avx2()) levels.push_back(SimdLevel::kAvx2);
  if (hemath::simd::cpu_has_avx512()) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Index of the first element that differs (exact double compare, so ±0
/// count as equal), or a.size() when none does.
std::size_t first_mismatch(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag()) return i;
  }
  return a.size();
}

/// Shift-add terms one transform executes on `live`: the four CSD
/// multiplies of every kFull and kMulOnly op, none for kCopy.
std::uint64_t schedule_terms(const fft::ButterflySchedule& live, const fft::FxpFft& fxp) {
  std::uint64_t terms = 0;
  for (int s = 0; s < live.stages(); ++s) {
    for (const fft::ButterflyOp& op : live.stage(s)) {
      if (op.kind == fft::OpKind::kCopy) continue;
      terms += 2u * static_cast<std::uint64_t>(fxp.twiddles()[op.twiddle_index].digit_count());
    }
  }
  return terms;
}

/// Dense reference: one forward_into per polynomial, with its own stats.
struct DenseRef {
  std::vector<std::vector<cplx>> spec;
  std::vector<fft::FxpFftStats> stats;
};

DenseRef dense_reference(const fft::FxpNegacyclicTransform& fxp, const Polys& polys) {
  DenseRef ref;
  for (const auto& a : polys) {
    ref.spec.emplace_back(fxp.degree() / 2);
    ref.stats.emplace_back();
    fxp.forward_into(a, ref.spec.back(), &ref.stats.back());
  }
  return ref;
}

/// Skip mode on `live` against the dense singles, at every SIMD level, for
/// every batch size from `min_batch` to polys.size().
void expect_live_matches_dense(const fft::FxpNegacyclicTransform& fxp,
                               const fft::ButterflySchedule& live, const Polys& polys,
                               const std::string& what, std::size_t min_batch = 1) {
  const DenseRef ref = dense_reference(fxp, polys);
  const std::uint64_t ops = live.op_count();
  const std::uint64_t terms = schedule_terms(live, fxp.fft());
  for (SimdLevel lvl : supported_levels()) {
    ScopedSimdLevel level(lvl);
    for (std::size_t batch = min_batch; batch <= polys.size(); ++batch) {
      SCOPED_TRACE(what + " level " + hemath::simd::simd_level_name(lvl) + " batch " +
                   std::to_string(batch));
      std::vector<std::vector<cplx>> out(batch, std::vector<cplx>(fxp.degree() / 2));
      std::vector<const double*> in_ptrs(batch);
      std::vector<cplx*> out_ptrs(batch);
      fft::FxpFftStats want;
      for (std::size_t b = 0; b < batch; ++b) {
        in_ptrs[b] = polys[b].data();
        out_ptrs[b] = out[b].data();
        want.merge(ref.stats[b]);
      }
      fft::FxpFftStats stats;
      fxp.forward_batch_into(std::span<const double* const>(in_ptrs),
                             std::span<cplx* const>(out_ptrs), &stats, nullptr, &live);
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t i = first_mismatch(out[b], ref.spec[b]);
        ASSERT_EQ(i, out[b].size()) << "lane " << b << " coefficient " << i;
      }
      EXPECT_EQ(stats.saturations, want.saturations);
      EXPECT_EQ(stats.stage_peak_mantissa, want.stage_peak_mantissa);
      EXPECT_EQ(stats.butterflies, batch * ops);
      EXPECT_EQ(stats.shift_add_terms, batch * terms);
    }
  }
}

/// Random signed coefficients on the positions of `pattern` (folded:
/// either half of each live FFT input), zeros elsewhere.
Polys random_polys(std::size_t n, const std::vector<std::size_t>& folded, std::size_t count,
                   int mag, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> dist(-mag, mag);
  Polys polys(count, std::vector<double>(n, 0.0));
  for (auto& a : polys) {
    for (std::size_t s : folded) {
      a[s] = dist(rng);
      a[s + n / 2] = dist(rng);
    }
  }
  return polys;
}

TEST(LiveFxp, MatchesDenseOnEveryResNet18ConvUnit) {
  // The served config and geometry: every distinct (channels, patch,
  // kernel) unit of ResNet-18 at N = 4096 under high_accuracy_approx_config,
  // with its encoded 4-bit weights. The first unit sweeps every batch size;
  // the rest run batch 9 (an 8-lane group plus the scalar loop for the last
  // polynomial on AVX-512, two 4-lane groups plus the scalar loop on AVX2,
  // nine scalar runs on scalar).
  const std::size_t n = 4096;
  const auto fxp = fft::shared_fxp_transform(n, core::high_accuracy_approx_config(n, 1u << 20));
  ASSERT_TRUE(fxp->fft().uses_narrow_path());
  const fft::NegacyclicFft exact(n);
  std::mt19937_64 rng(2101);
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t, std::size_t>> seen;
  for (const tensor::LayerConfig& layer : tensor::resnet18_conv_layers()) {
    tensor::Tensor4 w(9, layer.in_c, layer.kernel, layer.kernel);
    for (auto& v : w.data()) v = static_cast<i64>(rng() % 15) - 7;
    for (const protocol::ConvUnit& u : protocol::enumerate_conv_units(
             n, layer.in_c, layer.in_h, layer.in_w, w, layer.stride, layer.pad)) {
      const std::size_t kh = u.weights.kernel_h(), kw = u.weights.kernel_w();
      if (!seen.insert({layer.in_c, u.patch_h, u.patch_w, kh, kw}).second) continue;
      const encoding::ConvEncoder enc(n, layer.in_c, u.patch_h, u.patch_w, kh, kw);
      const sparsefft::SparseFftPlan plan(n / 2, encoding::folded_weight_pattern(enc.geometry()));
      const std::size_t tiles = enc.geometry().channel_tiles();
      Polys polys;
      for (std::size_t m = 0; m < 9; ++m) {
        const std::vector<i64> coeffs = enc.encode_weight(u.weights, m, m % tiles);
        polys.emplace_back(coeffs.begin(), coeffs.end());
      }
      const std::string what = layer.name + " patch " + std::to_string(u.patch_h) + "x" +
                               std::to_string(u.patch_w) + " kernel " + std::to_string(kh) + "x" +
                               std::to_string(kw);
      expect_live_matches_dense(*fxp, plan.schedule(), polys, what, seen.size() == 1 ? 1 : 9);

      // The certifier's reference: the exact executor on the same plan is
      // the dense double FFT, bit for bit.
      std::vector<cplx> z(n / 2), got(n / 2);
      for (const auto& a : polys) {
        exact.fold_into(a, z, &plan.schedule());
        sparsefft::execute_into(plan, z, got);
        const std::vector<cplx> want = exact.forward(a);
        ASSERT_EQ(first_mismatch(got, want), got.size()) << what;
      }
    }
  }
  EXPECT_GE(seen.size(), 20u);
}

TEST(LiveFxp, DegenerateButterfliesRoundLikeTheDenseKernel) {
  // default_approx_config narrows one fraction bit per stage (shift 1), so
  // every copy writes round(u) and a multiply-only mirror needs round(-Wv),
  // which differs from -round(Wv) on every tie. A scattered pattern makes
  // the early stages copies and multiply-only ops.
  const std::size_t n = 256, m = n / 2;
  const fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  ASSERT_TRUE(fxp.fft().uses_narrow_path());
  ASSERT_GT(fxp.fft().config().input_frac_bits, fxp.fft().config().stage_frac_bits.front());
  std::vector<std::size_t> folded;
  for (std::size_t s = 3; s < m; s += 11) folded.push_back(s);
  const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, folded));
  ASSERT_GT(plan.cost().copies, 0u);
  std::mt19937_64 rng(2102);
  const Polys polys = random_polys(n, folded, 9, 7, rng);
  expect_live_matches_dense(fxp, plan.schedule(), polys, "scattered");

  // The odd-symmetric shortcut is a real fault on this input: the pins
  // above would catch it.
  const DenseRef ref = dense_reference(fxp, polys);
  fft::testing_hooks::set_fxp_odd_symmetric_mul_only(true);
  std::vector<cplx> faulty(m);
  const double* in = polys[0].data();
  cplx* out = faulty.data();
  fxp.forward_batch_into(std::span<const double* const>(&in, 1), std::span<cplx* const>(&out, 1),
                         nullptr, nullptr, &plan.schedule());
  fft::testing_hooks::set_fxp_odd_symmetric_mul_only(false);
  EXPECT_NE(first_mismatch(faulty, ref.spec[0]), m);
}

TEST(LiveFxp, SaturatingConfigCountsEverySaturation) {
  // 14-bit words with 10 fraction bits hold |x| < 8, and stage 1 widens the
  // fraction to 12 bits (a left shift by 2): inputs past ±2 clamp there, so
  // copies and multiply-only mirrors saturate too, and each degenerate
  // output must count its own clamps. Later stages saturate on growth.
  const std::size_t n = 256, m = n / 2;
  fft::FxpFftConfig cfg = fft::FxpFftConfig::uniform(m, 10, 14, 6);
  cfg.stage_frac_bits.front() = 12;
  const fft::FxpNegacyclicTransform fxp(n, cfg);
  ASSERT_TRUE(fxp.fft().uses_narrow_path());
  std::mt19937_64 rng(2103);
  std::vector<std::size_t> folded;
  for (std::size_t s = 0; s < m; ++s) {
    if (rng() % 5 == 0) folded.push_back(s);
  }
  const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, folded));
  const Polys polys = random_polys(n, folded, 9, 7, rng);
  fft::FxpFftStats dense;
  for (const auto& a : polys) fxp.forward(a, &dense);
  ASSERT_GT(dense.saturations, 0u);
  expect_live_matches_dense(fxp, plan.schedule(), polys, "saturating");
}

TEST(LiveFxp, EmptyAndFullPatterns) {
  const std::size_t n = 256, m = n / 2;
  const fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  std::mt19937_64 rng(2104);

  // Empty: a zero polynomial, no op at all, the dense stats shape.
  const sparsefft::SparseFftPlan empty(m, sparsefft::SparsityPattern(m, {}));
  EXPECT_EQ(empty.schedule().op_count(), 0u);
  expect_live_matches_dense(fxp, empty.schedule(), Polys(9, std::vector<double>(n, 0.0)),
                            "empty");

  // Full: the dense schedule, so the counters are the dense totals.
  std::vector<std::size_t> all(m);
  for (std::size_t s = 0; s < m; ++s) all[s] = s;
  const sparsefft::SparseFftPlan full(m, sparsefft::SparsityPattern(m, all));
  const Polys polys = random_polys(n, all, 9, 7, rng);
  expect_live_matches_dense(fxp, full.schedule(), polys, "full");
  fft::FxpFftStats dense;
  fxp.forward(polys[0], &dense);
  EXPECT_EQ(full.schedule().op_count(), dense.butterflies);
  EXPECT_EQ(schedule_terms(full.schedule(), fxp.fft()), dense.shift_add_terms);
}

TEST(LiveFxp, RefusesDataOutsideTheSchedule) {
  const std::size_t n = 256, m = n / 2;
  const fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, {1, 5}));
  std::vector<double> a(n, 0.0);
  a[5 + m] = 3.0;  // folds onto live input 5
  std::vector<cplx> spec(m);
  const double* in = a.data();
  cplx* out = spec.data();
  EXPECT_NO_THROW(fxp.forward_batch_into(std::span<const double* const>(&in, 1),
                                         std::span<cplx* const>(&out, 1), nullptr, nullptr,
                                         &plan.schedule()));
  a[6] = 1.0;  // a dead input
  EXPECT_THROW(fxp.forward_batch_into(std::span<const double* const>(&in, 1),
                                      std::span<cplx* const>(&out, 1), nullptr, nullptr,
                                      &plan.schedule()),
               std::invalid_argument);
}

TEST(LiveFxp, PreparedWeightsEqualTheDenseEngineTransform) {
  // prepare_weights serves kApproxFft in skip mode; its spectra must be the
  // dense engine transform's, polynomial for polynomial.
  const auto params = bfv::BfvParams::create(4096, 20, 49);
  const bfv::BfvContext ctx(params);
  const auto cfg = core::high_accuracy_approx_config(params.n, params.t);
  const protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft, cfg, 7);
  tensor::Tensor4 w(5, 64, 3, 3);
  std::mt19937_64 rng(2105);
  for (auto& v : w.data()) v = static_cast<i64>(rng() % 15) - 7;
  const auto prepared = proto.prepare_weights(10, 10, w);

  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kApproxFft, cfg);
  const encoding::ConvEncoder enc(params.n, 64, 10, 10, 3);
  ASSERT_EQ(enc.geometry().channel_tiles(), 2u);
  for (std::size_t m = 0; m < 5; ++m) {
    for (std::size_t tile = 0; tile < 2; ++tile) {
      bfv::Plaintext pt = ctx.make_plaintext();
      const std::vector<i64> coeffs = enc.encode_weight(w, m, tile);
      for (std::size_t i = 0; i < params.n; ++i) {
        pt.poly[i] = hemath::from_signed(coeffs[i], params.t);
      }
      const bfv::PlainSpectrum dense = engine.transform_plain(pt);
      EXPECT_EQ(first_mismatch(prepared->spec[m][tile].fft, dense.fft), dense.fft.size())
          << "channel " << m << " tile " << tile;
    }
  }
}

}  // namespace
}  // namespace flash
