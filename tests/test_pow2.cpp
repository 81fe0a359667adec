// Z_{2^k} (kPow2) backend tier.
//
// There is no NTT mod 2^k to cross-check the Karatsuba path against, so the
// correctness story is differential all the way down: Karatsuba vs direct
// schoolbook over the ring primitives, the batch SoA path vs a loop of
// singles, and the full engine vs an *independent* signed-__int128
// schoolbook reference that shares no code with hemath/pow2.hpp. On top of
// that sits the admission proof: the wrap analysis must flip exactly at the
// predicted width.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "analysis/pow2_model.hpp"
#include "bfv/context.hpp"
#include "bfv/polymul_engine.hpp"
#include "hemath/pow2.hpp"
#include "wire/wire_format.hpp"

namespace flash {
namespace {

using hemath::i64;
using hemath::Pow2Ring;
using hemath::u64;

std::vector<u64> random_residues(std::size_t n, Pow2Ring ring, std::mt19937_64& rng) {
  std::vector<u64> v(n);
  for (auto& x : v) x = ring.reduce(rng());
  return v;
}

TEST(Pow2Ring, SignedLiftRoundTripsAndNegates) {
  for (const int k : {8, 16, 32, 60, 64}) {
    const Pow2Ring ring(k);
    const i64 lo = (k == 64) ? std::numeric_limits<i64>::min() : -(i64{1} << (k - 1));
    const i64 hi = -(lo + 1);
    for (const i64 v : {i64{0}, i64{1}, i64{-1}, i64{17}, i64{-17}, hi, lo}) {
      EXPECT_EQ(ring.to_signed(ring.from_signed(v)), v) << "k=" << k << " v=" << v;
      // -lo is not representable: two's complement negation fixes it.
      EXPECT_EQ(ring.neg(ring.from_signed(v)), ring.from_signed(v == lo ? lo : -v))
          << "k=" << k << " v=" << v;
    }
  }
}

TEST(Pow2Mul, KaratsubaMatchesSchoolbookAcrossWidthsAndSizes) {
  std::mt19937_64 rng(0xf1a5);
  for (const int k : {8, 16, 32, 49, 60, 64}) {
    const Pow2Ring ring(k);
    for (const std::size_t n : {std::size_t{1}, std::size_t{16}, std::size_t{32},
                                std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
      const std::vector<u64> a = random_residues(n, ring, rng);
      const std::vector<u64> b = random_residues(n, ring, rng);
      std::vector<u64> sb(n);
      hemath::negacyclic_mul_pow2_schoolbook(a.data(), b.data(), sb.data(), n, ring);
      const std::vector<u64> fast = hemath::negacyclic_mul_pow2(a, b, ring);
      ASSERT_EQ(fast, sb) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Pow2Mul, BatchMatchesSinglesOnBothHeuristicBranches) {
  std::mt19937_64 rng(0xbeef);
  const std::size_t n = 256;
  for (const int k : {16, 49, 64}) {
    const Pow2Ring ring(k);
    // Sparse weight (SoA shift-accumulate branch) and dense weight
    // (per-lane Karatsuba branch) — the crossover is nnz * n vs the
    // Karatsuba multiply count, so nnz 3 and nnz n land on opposite sides.
    for (const std::size_t nnz : {std::size_t{3}, n}) {
      std::vector<u64> w(n, 0);
      for (std::size_t j = 0; j < nnz; ++j) {
        w[(j * 37) % n] = ring.from_signed(static_cast<i64>(j % 11) - 5);
      }
      for (const std::size_t g : {std::size_t{1}, std::size_t{4}, std::size_t{5}}) {
        std::vector<std::vector<u64>> cts(g);
        std::vector<std::vector<u64>> outs(g, std::vector<u64>(n));
        std::vector<const u64*> in_ptrs(g);
        std::vector<u64*> out_ptrs(g);
        for (std::size_t l = 0; l < g; ++l) {
          cts[l] = random_residues(n, ring, rng);
          in_ptrs[l] = cts[l].data();
          out_ptrs[l] = outs[l].data();
        }
        hemath::negacyclic_mul_pow2_batch_into(in_ptrs, w.data(), out_ptrs, n, ring);
        for (std::size_t l = 0; l < g; ++l) {
          ASSERT_EQ(outs[l], hemath::negacyclic_mul_pow2(cts[l], w, ring))
              << "k=" << k << " nnz=" << nnz << " g=" << g << " lane=" << l;
        }
      }
    }
  }
}

/// Independent reference sharing no code with hemath/pow2.hpp: signed
/// schoolbook negacyclic convolution in __int128, reduced mod 2^k at the end.
std::vector<u64> i128_reference(const std::vector<u64>& ct, const std::vector<i64>& w,
                                const Pow2Ring& ring) {
  const std::size_t n = ct.size();
  std::vector<__int128> acc(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const __int128 x = ring.to_signed(ct[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (w[j] == 0) continue;
      const std::size_t idx = i + j;
      if (idx < n) acc[idx] += x * w[j];
      else acc[idx - n] -= x * w[j];
    }
  }
  std::vector<u64> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = ring.reduce(static_cast<u64>(acc[i]));
  return out;
}

TEST(Pow2Engine, EndToEndMatchesIndependentReference) {
  std::mt19937_64 rng(0x5eed);
  for (const int k : {32, 49, 62}) {
    const bfv::BfvParams p = bfv::BfvParams::create_pow2(256, 13, k);
    const bfv::BfvContext ctx(p);
    const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kPow2);
    const Pow2Ring ring(k);

    std::vector<i64> w(p.n, 0);
    for (int j = 0; j < 20; ++j) w[rng() % p.n] = static_cast<i64>(rng() % 513) - 256;
    bfv::Plaintext pt = ctx.make_plaintext();
    for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = hemath::from_signed(w[i], p.t);

    const std::vector<u64> ct = random_residues(p.n, ring, rng);
    const std::vector<u64> want = i128_reference(ct, w, ring);

    // One product, then a second accumulated onto it: finalize must be the
    // bitwise accumulator each time.
    const bfv::PlainSpectrum ws = engine.transform_plain(pt);
    const bfv::CipherSpectrum cs = engine.transform_cipher_spectrum(hemath::Poly(p.q, ct));
    bfv::SpectralAccumulator acc;
    engine.multiply_accumulate(cs, ws, acc);
    EXPECT_EQ(engine.finalize(acc).coeffs(), want) << "k=" << k;
    engine.multiply_accumulate(cs, ws, acc);
    const hemath::Poly doubled = engine.finalize(acc);
    for (std::size_t i = 0; i < p.n; ++i) {
      EXPECT_EQ(doubled[i], ring.add(want[i], want[i])) << "k=" << k << " i=" << i;
    }
  }
}

TEST(Pow2Engine, CountersChargeKaratsubaMultiplies) {
  const bfv::BfvParams p = bfv::BfvParams::create_pow2(256, 13, 32);
  const bfv::BfvContext ctx(p);
  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kPow2);
  bfv::Plaintext pt = ctx.make_plaintext();
  pt.poly[1] = 3;
  const bfv::PlainSpectrum ws = engine.transform_plain(pt);
  const bfv::PolyMulCounters before = engine.counters();
  bfv::SpectralAccumulator acc;
  engine.multiply_accumulate(
      engine.transform_cipher_spectrum(hemath::Poly(p.q, std::vector<u64>(p.n, 5))), ws, acc);
  (void)engine.finalize(acc);
  const bfv::PolyMulCounters d = engine.counters() - before;
  EXPECT_EQ(d.pointwise_products, hemath::pow2_mult_count(p.n));
  EXPECT_EQ(d.cipher_transforms, 1u);
  EXPECT_EQ(d.inverse_transforms, 1u);
}

TEST(Pow2Engine, RejectsMismatchedModulusShapes) {
  // kPow2 on a prime-q context must throw, and the NTT tables must not
  // exist on a pow2 context (ntt() is a programming error there).
  const bfv::BfvParams prime = bfv::BfvParams::create(256, 13, 40);
  const bfv::BfvContext prime_ctx(prime);
  EXPECT_THROW(bfv::PolyMulEngine(prime_ctx, bfv::PolyMulBackend::kPow2), std::invalid_argument);

  const bfv::BfvParams pow2 = bfv::BfvParams::create_pow2(256, 13, 40);
  const bfv::BfvContext pow2_ctx(pow2);
  EXPECT_THROW(pow2_ctx.ntt(), std::logic_error);
  EXPECT_NO_THROW(bfv::PolyMulEngine(pow2_ctx, bfv::PolyMulBackend::kNtt));
}

TEST(Pow2WrapAnalysis, FlipsExactlyAtThePredictedWidth) {
  // nnz=9, max_w=16, max_x=2^20: bound = 9 * 16 * 2^20 < 2^28, so 28 magnitude
  // bits + sign = 28 required bits... compute explicitly via the analyzer and
  // check the verdict flips between k = required-1 and k = required.
  analysis::Pow2Obligation ob;
  ob.n = 512;
  ob.weight_nnz = 9;
  ob.max_w = 16;
  ob.max_x = u64{1} << 20;
  const int kmin = analysis::min_wrap_free_k(ob);
  ASSERT_GT(kmin, 2);
  EXPECT_FALSE(analysis::analyze_pow2_polymul(ob, kmin - 1).wrap_free);
  EXPECT_TRUE(analysis::analyze_pow2_polymul(ob, kmin).wrap_free);
  EXPECT_EQ(analysis::analyze_pow2_polymul(ob, kmin).headroom_bits, 0);

  // The bound is exact: 9 * 16 * 2^20 = 144 * 2^20 needs 8 + 20 = 28
  // magnitude bits, 29 with sign.
  EXPECT_EQ(kmin, 29);

  // And the dynamic check agrees with the static proof at the boundary: a
  // maximal-operand product at kmin is bit-equal to the unbounded reference.
  const Pow2Ring ring(kmin);
  std::vector<u64> a(ob.n, 0), b(ob.n, 0);
  for (std::size_t j = 0; j < ob.weight_nnz; ++j) b[j * 50] = ring.from_signed(-16);
  for (std::size_t i = 0; i < ob.n; ++i) a[i] = ring.from_signed(-(i64{1} << 20));
  std::vector<u64> got(ob.n);
  hemath::negacyclic_mul_pow2_schoolbook(a.data(), b.data(), got.data(), ob.n, ring);
  std::vector<i64> bw(ob.n, 0);
  for (std::size_t j = 0; j < ob.weight_nnz; ++j) bw[j * 50] = -16;
  EXPECT_EQ(got, i128_reference(a, bw, ring));
}

TEST(Pow2WrapAnalysis, OverflowingObligationIsNeverAdmissible) {
  analysis::Pow2Obligation ob;
  ob.n = 512;
  ob.weight_nnz = 512;
  ob.max_w = u64{1} << 40;
  ob.max_x = u64{1} << 40;
  EXPECT_FALSE(analysis::analyze_pow2_polymul(ob, 62).wrap_free);
  EXPECT_EQ(analysis::min_wrap_free_k(ob), 0);
}

TEST(Pow2WrapAnalysis, ErrorBudgetIsZeroWhenProven) {
  analysis::Pow2Obligation ob;
  ob.n = 512;
  ob.weight_nnz = 4;
  ob.max_w = 8;
  ob.max_x = 1 << 16;
  // Wrap-free means exact: no error budget is spent mod 2^k.
  EXPECT_TRUE(analysis::analyze_pow2_polymul(ob, 40).wrap_free);
}

TEST(Pow2Wire, PlanSpecRoundTripsThePow2Backend) {
  wire::PlanSpecWire spec;
  spec.params = bfv::BfvParams::create_pow2(256, 13, 40);
  spec.backend = bfv::PolyMulBackend::kPow2;
  spec.protocol_seed = 0xabcd;
  spec.in_h = 4;
  spec.in_w = 4;
  wire::ByteWriter w;
  wire::encode(spec, w);
  const wire::Bytes bytes = w.take();
  wire::ByteReader r(bytes);
  const wire::PlanSpecWire back = wire::decode_plan_spec(r);
  EXPECT_EQ(back.backend, bfv::PolyMulBackend::kPow2);
  EXPECT_EQ(back.params.q, spec.params.q);

  // One past kPow2 is still rejected (the range check moved, not vanished).
  wire::ByteWriter w2;
  wire::encode(spec, w2);
  wire::Bytes corrupt = w2.take();
  // The backend byte sits right after the params body; find it by encoding a
  // second spec differing only in backend and diffing.
  wire::ByteWriter w3;
  wire::PlanSpecWire ntt_spec = spec;
  ntt_spec.backend = bfv::PolyMulBackend::kNtt;
  wire::encode(ntt_spec, w3);
  const wire::Bytes ntt_bytes = w3.take();
  std::size_t backend_at = corrupt.size();
  for (std::size_t i = 0; i < corrupt.size(); ++i) {
    if (corrupt[i] != ntt_bytes[i]) {
      backend_at = i;
      break;
    }
  }
  ASSERT_LT(backend_at, corrupt.size());
  corrupt[backend_at] = static_cast<std::uint8_t>(bfv::PolyMulBackend::kPow2) + 1;
  wire::ByteReader bad(corrupt);
  EXPECT_THROW(wire::decode_plan_spec(bad), wire::WireError);
}

}  // namespace
}  // namespace flash
