// BFV scheme: encrypt/decrypt round trips, ciphertext-plaintext add/sub,
// plaintext multiplication across all three PolyMul backends, and noise
// budget behaviour (the kernel-level robustness of paper §III-A).
#include <gtest/gtest.h>

#include <random>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "core/flash_accelerator.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd.hpp"

namespace flash::bfv {
namespace {

BfvParams test_params() { return BfvParams::create(1024, 16, 45); }

struct Fixture {
  BfvContext ctx;
  hemath::Sampler sampler;
  KeyGenerator keygen;
  SecretKey sk;
  PreparedPublicKey ppk;
  Encryptor enc;
  Decryptor dec;

  explicit Fixture(std::uint64_t seed = 99)
      : ctx(test_params()), sampler(seed), keygen(ctx, sampler), sk(keygen.secret_key()),
        ppk(prepare_public_key(ctx, keygen.public_key(sk))), enc(ctx, sampler), dec(ctx, sk) {}
};

std::vector<i64> random_values(std::size_t count, i64 lo, i64 hi, std::mt19937_64& rng) {
  std::uniform_int_distribution<i64> dist(lo, hi);
  std::vector<i64> v(count);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(BfvParams, CreateAndValidate) {
  const BfvParams p = test_params();
  EXPECT_EQ(p.n, 1024u);
  EXPECT_EQ(p.t, u64{1} << 16);
  EXPECT_TRUE(hemath::is_prime(p.q));
  EXPECT_EQ((p.q - 1) % 2048, 0u);
  EXPECT_GT(p.noise_ceiling_bits(), 25.0);
}

TEST(BfvParams, RejectsBadCombos) {
  BfvParams p = test_params();
  p.q = p.q + 1;  // not prime / wrong congruence
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.t = p.q;  // q must exceed 2t
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BfvParams, SecurityEstimateTracksHeStandard) {
  // HE-standard anchors: (N, max log q) at 128-bit security.
  EXPECT_NEAR(estimated_security_bits(1024, 27), 128.0, 2.0);
  EXPECT_NEAR(estimated_security_bits(4096, 109), 127.0, 5.0);
  // Bigger q at fixed N weakens; bigger N at fixed q strengthens.
  EXPECT_LT(estimated_security_bits(4096, 150), estimated_security_bits(4096, 109));
  EXPECT_GT(estimated_security_bits(8192, 109), estimated_security_bits(4096, 109));
  // Our default experiment set (N=4096, 49-bit q) is far above 128 bits.
  EXPECT_GT(estimated_security_bits(4096, 49), 128.0);
}

TEST(Bfv, EncodeDecodeSigned) {
  Fixture f;
  std::mt19937_64 rng(1);
  const auto vals = random_values(f.ctx.params().n, -1000, 1000, rng);
  const Plaintext pt = f.ctx.encode_signed(vals);
  EXPECT_EQ(f.ctx.decode_signed(pt), vals);
}

TEST(Bfv, EncodeRejectsOutOfRange) {
  Fixture f;
  const i64 big = static_cast<i64>(f.ctx.params().t);
  EXPECT_THROW(f.ctx.encode_signed({big}), std::out_of_range);
}

TEST(Bfv, PublicKeyEncryptDecrypt) {
  Fixture f;
  std::mt19937_64 rng(3);
  const auto vals = random_values(f.ctx.params().n, -30000, 30000, rng);
  const Plaintext pt = f.ctx.encode_signed(vals);
  const Ciphertext ct = f.enc.encrypt(pt, f.ppk);
  EXPECT_EQ(f.ctx.decode_signed(f.dec.decrypt(ct)), vals);
}

TEST(Bfv, EncryptBatchEqualsSingles) {
  // With the same streams, a batch of k = 1..9 equals a loop of single
  // encryptions bit for bit at every SIMD level (singles taken at the
  // scalar level), and every ciphertext decrypts exactly.
  Fixture f;
  const auto& p = f.ctx.params();
  std::mt19937_64 rng(24);
  std::vector<hemath::simd::SimdLevel> levels = {hemath::simd::SimdLevel::kScalar};
  if (hemath::simd::cpu_has_avx2()) levels.push_back(hemath::simd::SimdLevel::kAvx2);
  if (hemath::simd::cpu_has_avx512()) levels.push_back(hemath::simd::SimdLevel::kAvx512);
  for (std::size_t k = 1; k <= 9; ++k) {
    std::vector<Plaintext> pts;
    std::vector<const u64*> messages;
    for (std::size_t j = 0; j < k; ++j) {
      pts.push_back(f.ctx.encode_signed(random_values(p.n, -30000, 30000, rng)));
    }
    for (const Plaintext& pt : pts) messages.push_back(pt.poly.coeffs().data());
    std::vector<Ciphertext> singles;
    {
      hemath::simd::ScopedSimdLevel scalar(hemath::simd::SimdLevel::kScalar);
      for (std::size_t j = 0; j < k; ++j) {
        hemath::Sampler stream(100 * k + j);
        Encryptor enc(f.ctx, stream);
        singles.push_back(enc.encrypt(pts[j], f.ppk));
      }
    }
    for (hemath::simd::SimdLevel lvl : levels) {
      hemath::simd::ScopedSimdLevel level(lvl);
      std::vector<hemath::Sampler> streams;
      for (std::size_t j = 0; j < k; ++j) streams.emplace_back(100 * k + j);
      std::vector<Ciphertext> batch(k);
      encrypt_batch(f.ctx, f.ppk, messages, streams, batch);
      for (std::size_t j = 0; j < k; ++j) {
        const char* name = hemath::simd::simd_level_name(lvl);
        ASSERT_EQ(batch[j].c0, singles[j].c0) << "k=" << k << " j=" << j << " level=" << name;
        ASSERT_EQ(batch[j].c1, singles[j].c1) << "k=" << k << " j=" << j << " level=" << name;
        ASSERT_EQ(f.dec.decrypt(batch[j]).poly, pts[j].poly) << "k=" << k << " j=" << j;
      }
    }
  }
}

/// round(t·c/q) mod t for the centered representative of c, halves away
/// from zero, from the 128-bit quotient and remainder: what decryption of a
/// c1 = 0 ciphertext with c0 = c must return.
u64 reference_rounding(u64 c, u64 t, u64 q) {
  const bool negative = c > q / 2;
  const hemath::u128 scaled = static_cast<hemath::u128>(t) * (negative ? q - c : c);
  u64 r = static_cast<u64>(scaled / q);
  if (2 * (scaled % q) >= q) ++r;
  return negative && r != 0 ? t - r : r;
}

/// c0 probes: the edges 0, q/2, q/2 + 1, q - 1; the values around the
/// rounding boundary floor((2k+1)q / 2t) for each k in `ks` (t·c/q crosses
/// k + 1/2 between the boundary and its successor); and random values.
std::vector<u64> rounding_probes(const BfvParams& p, const std::vector<u64>& ks,
                                 std::mt19937_64& rng) {
  std::vector<u64> probes = {0, p.q / 2, p.q / 2 + 1, p.q - 1};
  for (u64 k : ks) {
    const u64 b = static_cast<u64>((2 * static_cast<hemath::u128>(k) + 1) * p.q /
                                   (2 * static_cast<hemath::u128>(p.t)));
    for (u64 c : {b - 1, b, b + 1, b + 2}) {
      if (c < p.q) probes.push_back(c);
    }
  }
  for (int i = 0; i < 256; ++i) probes.push_back(rng() % p.q);
  return probes;
}

/// Decrypts c1 = 0 ciphertexts carrying `probes` in c0, one by one and as a
/// batch, and checks every coefficient against reference_rounding.
void expect_exact_rounding(const BfvParams& p, const std::vector<u64>& probes) {
  const BfvContext ctx(p);
  hemath::Sampler sampler(5);
  KeyGenerator keygen(ctx, sampler);
  const Decryptor dec(ctx, keygen.secret_key());
  std::vector<Ciphertext> cts((probes.size() + p.n - 1) / p.n, ctx.make_ciphertext());
  for (std::size_t i = 0; i < probes.size(); ++i) cts[i / p.n].c0[i % p.n] = probes[i];
  const std::vector<Plaintext> batch = dec.decrypt_batch(cts);
  ASSERT_EQ(batch.size(), cts.size());
  for (std::size_t c = 0; c < cts.size(); ++c) {
    const Plaintext single = dec.decrypt(cts[c]);
    for (std::size_t j = 0; j < p.n; ++j) {
      const u64 c0 = cts[c].c0[j];
      const u64 want = reference_rounding(c0, p.t, p.q);
      ASSERT_EQ(single.poly[j], want) << "decrypt c0=" << c0 << " t=" << p.t << " q=" << p.q;
      ASSERT_EQ(batch[c].poly[j], want) << "decrypt_batch c0=" << c0 << " t=" << p.t
                                        << " q=" << p.q;
    }
  }
}

BfvParams rounding_params(std::size_t n, u64 t, u64 q) {
  BfvParams p;
  p.n = n;
  p.t = t;
  p.q = q;
  p.validate();
  return p;
}

TEST(Bfv, DecryptionRoundingIsExactAtEveryBoundary) {
  std::mt19937_64 rng(17);
  // Small rings: every boundary, power-of-two and odd t.
  for (const BfvParams& p : {BfvParams::create(8, 4, 7), BfvParams::create(8, 8, 12),
                             rounding_params(8, 7, hemath::find_ntt_prime(7, 8))}) {
    std::vector<u64> ks(p.t);
    for (u64 k = 0; k < p.t; ++k) ks[k] = k;
    expect_exact_rounding(p, rounding_probes(p, ks, rng));
  }
  // Paper scale (t = 2^20, 49-bit q), the widest t the division-free path
  // takes (just under 2^50, 61-bit q), and the widest t the validator admits
  // ((q-1)/2 with q just below 2^62, the largest prime the library finds): a
  // sample of boundaries, extremes included.
  const u64 q62 = hemath::next_prime_congruent((u64{1} << 62) - (u64{1} << 40), 16);
  const u64 q61 = hemath::find_ntt_prime(61, 8);
  for (const BfvParams& p : {BfvParams::create(4096, 20, 49),
                             rounding_params(8, (u64{1} << 50) - 1, q61),
                             rounding_params(8, (q62 - 1) / 2, q62)}) {
    std::vector<u64> ks = {0, 1, p.t / 2 - 1, p.t / 2, p.t / 2 + 1, p.t - 1};
    for (int i = 0; i < 4096; ++i) ks.push_back(rng() % p.t);
    expect_exact_rounding(p, rounding_probes(p, ks, rng));
  }
}

TEST(Bfv, FreshNoiseBudgetPositiveAndPredicted) {
  Fixture f;
  std::mt19937_64 rng(4);
  const Plaintext pt = f.ctx.encode_signed(random_values(f.ctx.params().n, -100, 100, rng));
  const Ciphertext ct = f.enc.encrypt(pt, f.ppk);
  const double budget = f.dec.invariant_noise_budget(ct);
  EXPECT_GT(budget, 5.0);
  EXPECT_LT(budget, f.ctx.params().noise_ceiling_bits());
}

TEST(Bfv, AddSubPlain) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  std::mt19937_64 rng(6);
  const auto va = random_values(f.ctx.params().n, -10000, 10000, rng);
  const auto vb = random_values(f.ctx.params().n, -10000, 10000, rng);
  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.ppk);
  ev.add_plain_inplace(ca, f.ctx.encode_signed(vb));
  auto got = f.ctx.decode_signed(f.dec.decrypt(ca));
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], va[i] + vb[i]);
  ev.sub_plain_inplace(ca, f.ctx.encode_signed(vb));
  EXPECT_EQ(f.ctx.decode_signed(f.dec.decrypt(ca)), va);
}

class MultiplyPlainBackend : public ::testing::TestWithParam<PolyMulBackend> {};

TEST_P(MultiplyPlainBackend, SparseWeightPolyMulDecryptsExactly) {
  Fixture f;
  const auto& p = f.ctx.params();
  std::optional<fft::FxpFftConfig> cfg;
  if (GetParam() == PolyMulBackend::kApproxFft) {
    // The no-retraining operating point (k = 18): errors land far below one
    // message LSB, so the result is bit-exact.
    cfg = core::high_accuracy_approx_config(p.n, p.t);
  }
  Evaluator ev(f.ctx, GetParam(), cfg);

  std::mt19937_64 rng(8);
  // Activation-like plaintext: small positive values.
  const auto va = random_values(p.n, 0, 15, rng);
  // Weight-like sparse plaintext: 72 nonzeros of 4-bit weights.
  std::vector<i64> vw(p.n, 0);
  for (int i = 0; i < 72; ++i) {
    i64 w = static_cast<i64>(rng() % 15) - 7;
    if (w == 0) w = 1;
    vw[rng() % p.n] = w;
  }

  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.ppk);
  const Ciphertext prod = ev.multiply_plain(ca, f.ctx.encode_signed(vw));

  // Expected: negacyclic product mod t.
  hemath::Poly pa(p.t, p.n), pw(p.t, p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    pa[i] = hemath::from_signed(va[i], p.t);
    pw[i] = hemath::from_signed(vw[i], p.t);
  }
  const hemath::Poly expect = hemath::multiply_schoolbook(pa, pw);

  const Plaintext got = f.dec.decrypt(prod);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    if (got.poly[i] != expect[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "backend produced wrong coefficients";
  EXPECT_GT(f.dec.invariant_noise_budget(prod), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, MultiplyPlainBackend,
                         ::testing::Values(PolyMulBackend::kNtt, PolyMulBackend::kFft,
                                           PolyMulBackend::kApproxFft));

TEST(Bfv, ApproxSpectrumErrorScalesWithKeyWrap) {
  // Reproduction finding (documented in DESIGN.md): the paper's kernel-level
  // argument treats approximate-FFT error as additive ciphertext noise, but
  // in a faithful BFV implementation the weight-spectrum error delta is
  // multiplied by the *ciphertext-scale* elements c0, c1 before decryption
  // recombines them mod q. The residual error after decryption scales with
  // the plaintext modulus t (roughly t/8 rms at the paper's k = 5 point),
  // NOT with the message magnitude. Bit-exactness needs the high-accuracy
  // configuration — which this test also verifies.
  Fixture f;
  const auto& p = f.ctx.params();
  Evaluator exact(f.ctx, PolyMulBackend::kNtt);
  Evaluator approx_k5(f.ctx, PolyMulBackend::kApproxFft, core::default_approx_config(p.n, p.t));
  Evaluator approx_hi(f.ctx, PolyMulBackend::kApproxFft,
                      core::high_accuracy_approx_config(p.n, p.t));

  std::mt19937_64 rng(77);
  const auto va = random_values(p.n, 0, 15, rng);
  std::vector<i64> vw(p.n, 0);
  for (int i = 0; i < 72; ++i) vw[rng() % p.n] = static_cast<i64>(rng() % 15) - 7;
  const Plaintext ptw = f.ctx.encode_signed(vw);

  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.ppk);
  const auto ref = f.ctx.decode_signed(f.dec.decrypt(exact.multiply_plain(ca, ptw)));
  const auto got_k5 = f.ctx.decode_signed(f.dec.decrypt(approx_k5.multiply_plain(ca, ptw)));
  const auto got_hi = f.ctx.decode_signed(f.dec.decrypt(approx_hi.multiply_plain(ca, ptw)));

  i64 max_err_k5 = 0, max_err_hi = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err_k5 = std::max(max_err_k5, std::abs(got_k5[i] - ref[i]));
    max_err_hi = std::max(max_err_hi, std::abs(got_hi[i] - ref[i]));
  }
  EXPECT_GT(max_err_k5, 0);  // k = 5 is not exact under faithful BFV
  EXPECT_LT(max_err_k5, static_cast<i64>(p.t) / 2);  // bounded by the sharing modulus
  EXPECT_EQ(max_err_hi, 0);  // the 48-bit/k=20 configuration is bit-exact
}

TEST(Bfv, MultiplyPlainNoiseGrowsWithWeightNorm) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  const auto& p = f.ctx.params();
  std::mt19937_64 rng(9);
  const auto va = random_values(p.n, 0, 15, rng);
  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.ppk);
  const double fresh = f.dec.invariant_noise_budget(ca);

  std::vector<i64> sparse(p.n, 0), dense_w(p.n, 0);
  for (int i = 0; i < 9; ++i) sparse[rng() % p.n] = 7;
  for (std::size_t i = 0; i < p.n; ++i) dense_w[i] = 7;
  const double after_sparse =
      f.dec.invariant_noise_budget(ev.multiply_plain(ca, f.ctx.encode_signed(sparse)));
  const double after_dense =
      f.dec.invariant_noise_budget(ev.multiply_plain(ca, f.ctx.encode_signed(dense_w)));
  EXPECT_LT(after_sparse, fresh);
  EXPECT_LT(after_dense, after_sparse);  // larger l1 norm, more noise
}

TEST(Bfv, EngineCountsOperations) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kFft);
  std::mt19937_64 rng(10);
  const auto va = random_values(f.ctx.params().n, 0, 15, rng);
  std::vector<i64> vw(f.ctx.params().n, 0);
  vw[3] = 2;
  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.ppk);
  const PlainSpectrum spec = ev.transform_plain(f.ctx.encode_signed(vw));
  (void)ev.multiply_plain(ca, spec);
  (void)ev.multiply_plain(ca, spec);  // weight spectrum reused
  const auto& c = ev.engine().counters();
  EXPECT_EQ(c.plain_transforms, 1u);
  EXPECT_EQ(c.cipher_transforms, 4u);   // 2 ciphertexts x 2 elements
  EXPECT_EQ(c.inverse_transforms, 4u);
}

TEST(Bfv, BackendMismatchThrows) {
  Fixture f;
  Evaluator ntt_ev(f.ctx, PolyMulBackend::kNtt);
  Evaluator fft_ev(f.ctx, PolyMulBackend::kFft);
  std::vector<i64> vw(f.ctx.params().n, 0);
  vw[0] = 1;
  const PlainSpectrum spec = ntt_ev.transform_plain(f.ctx.encode_signed(vw));
  const Ciphertext ca =
      f.enc.encrypt(f.ctx.encode_signed(std::vector<i64>(f.ctx.params().n, 1)), f.ppk);
  EXPECT_THROW(fft_ev.multiply_plain(ca, spec), std::invalid_argument);
}

TEST(Bfv, ApproxBackendRequiresConfig) {
  Fixture f;
  EXPECT_THROW(Evaluator(f.ctx, PolyMulBackend::kApproxFft), std::invalid_argument);
}

}  // namespace
}  // namespace flash::bfv
