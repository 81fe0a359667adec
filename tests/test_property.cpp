// Cross-module property tests and fuzz-style robustness checks.
//
// Workload-shaped inputs come from the src/testing generators: every case is
// a pure function of a derive_stream_seed stream, so any failure here
// reproduces from the fixed kPropertySeed below (see tests/README.md for the
// seed-reproduction workflow).
#include <gtest/gtest.h>

#include <random>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "bfv/serialization.hpp"
#include "fft/negacyclic.hpp"
#include "hemath/ntt.hpp"
#include "hemath/pow2.hpp"
#include "hemath/primes.hpp"
#include "hemath/sampler.hpp"
#include "testing/generators.hpp"

namespace flash {
namespace {

using hemath::i64;
using hemath::u64;

constexpr std::uint64_t kPropertySeed = 0x9209e127;

TEST(Property, NegacyclicHalfSpectrumParseval) {
  // The norm relation the DESIGN.md error analysis relies on:
  // sum |a_hat_half|^2 = (N/2) * sum a^2 for real input.
  for (std::size_t n : {std::size_t{16}, std::size_t{256}, std::size_t{2048}}) {
    fft::NegacyclicFft transform(n);
    std::mt19937_64 rng(n);
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    std::vector<double> a(n);
    double time_energy = 0;
    for (auto& v : a) {
      v = dist(rng);
      time_energy += v * v;
    }
    const auto spec = transform.forward(a);
    double spec_energy = 0;
    for (const auto& s : spec) spec_energy += std::norm(s);
    EXPECT_NEAR(spec_energy, static_cast<double>(n) / 2.0 * time_energy,
                1e-6 * spec_energy)
        << n;
  }
}

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, NttAndFftBackendsAgree) {
  // Random parameter sets: the double-FFT backend must match the exact NTT
  // backend bit-for-bit whenever the rounding-noise margin holds.
  std::mt19937_64 seed_rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = std::size_t{1} << (9 + seed_rng() % 3);  // 512..2048
  const int log_t = 14 + static_cast<int>(seed_rng() % 5);
  const int log_q = log_t + 26 + static_cast<int>(seed_rng() % 4);
  const bfv::BfvParams params = bfv::BfvParams::create(n, log_t, log_q);
  bfv::BfvContext ctx(params);
  hemath::Sampler sampler(GetParam());
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PreparedPublicKey pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  bfv::Encryptor enc(ctx, sampler);
  bfv::Decryptor dec(ctx, sk);
  bfv::Evaluator ntt_ev(ctx, bfv::PolyMulBackend::kNtt);
  bfv::Evaluator fft_ev(ctx, bfv::PolyMulBackend::kFft);

  std::mt19937_64 rng(GetParam() * 17 + 1);
  std::vector<i64> va(n), vw(n, 0);
  for (auto& v : va) v = static_cast<i64>(rng() % 16);
  for (int i = 0; i < 100; ++i) vw[rng() % n] = static_cast<i64>(rng() % 15) - 7;

  const bfv::Ciphertext ct = enc.encrypt(ctx.encode_signed(va), pk);
  const bfv::Plaintext ptw = ctx.encode_signed(vw);
  const auto a = ctx.decode_signed(dec.decrypt(ntt_ev.multiply_plain(ct, ptw)));
  const auto b = ctx.decode_signed(dec.decrypt(fft_ev.multiply_plain(ct, ptw)));
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(1, 9));

TEST(Fuzz, SerializationNeverCrashesOnCorruption) {
  const bfv::BfvParams params = bfv::BfvParams::create(256, 14, 40);
  bfv::BfvContext ctx(params);
  hemath::Sampler sampler(1);
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PreparedPublicKey pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  bfv::Encryptor enc(ctx, sampler);
  const bfv::Ciphertext ct = enc.encrypt(ctx.encode_signed({1, 2, 3}), pk);
  const bfv::Bytes clean = bfv::serialize(params, ct);

  std::mt19937_64 rng(2);
  int throws = 0, accepts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    bfv::Bytes fuzzed = clean;
    switch (trial % 3) {
      case 0:  // truncate
        fuzzed.resize(rng() % (clean.size() + 1));
        break;
      case 1:  // flip random bytes
        for (int f = 0; f < 4; ++f) fuzzed[rng() % fuzzed.size()] ^= static_cast<std::uint8_t>(rng());
        break;
      case 2:  // append garbage
        for (int f = 0; f < 8; ++f) fuzzed.push_back(static_cast<std::uint8_t>(rng()));
        break;
    }
    try {
      const bfv::Ciphertext out = bfv::deserialize_ciphertext(ctx, fuzzed);
      // If accepted, the object must at least be structurally valid.
      EXPECT_EQ(out.c0.degree(), params.n);
      EXPECT_EQ(out.c0.modulus(), params.q);
      for (std::size_t i = 0; i < params.n; ++i) ASSERT_LT(out.c0[i], params.q);
      ++accepts;
    } catch (const std::runtime_error&) {
      ++throws;
    }
  }
  EXPECT_GT(throws, 150);  // most corruptions are detected
  EXPECT_EQ(throws + accepts, 300);
}

TEST(Fuzz, PlaintextLoaderRejectsCrossTypeBuffers) {
  const bfv::BfvParams params = bfv::BfvParams::create(256, 14, 40);
  bfv::BfvContext ctx(params);
  const bfv::Bytes params_bytes = bfv::serialize(params);
  EXPECT_THROW(bfv::deserialize_plaintext(ctx, params_bytes), std::runtime_error);
  const bfv::Bytes empty;
  EXPECT_THROW(bfv::deserialize_plaintext(ctx, empty), std::runtime_error);
}

// --- Algebraic identities over generator-produced workloads. ---

TEST(Property, NegacyclicMultiplyCommutes) {
  // a * b == b * a mod (X^N + 1, q), through the NTT fast path (whose
  // forward/pointwise/inverse pipeline treats the operands asymmetrically
  // in table order, so this is not vacuous).
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    const testing::PolymulCase c =
        testing::make_polymul_case({.seed = hemath::derive_stream_seed(kPropertySeed, stream)});
    const u64 q = c.params.q;
    std::vector<u64> w(c.spec.n);
    for (std::size_t i = 0; i < c.spec.n; ++i) w[i] = hemath::from_signed(c.w[i], q);
    const hemath::NttTables tables(q, c.spec.n);
    EXPECT_EQ(hemath::negacyclic_multiply(tables, c.ct, w),
              hemath::negacyclic_multiply(tables, w, c.ct))
        << c.spec.describe();
  }
}

TEST(Property, NegacyclicMultiplyIsLinear) {
  // ct * (w1 + w2) == ct * w1 + ct * w2 mod q, with the two weight vectors
  // drawn as independent generator cases sharing the ciphertext operand.
  const testing::PolymulCase c1 =
      testing::make_polymul_case({.seed = hemath::derive_stream_seed(kPropertySeed, 10)});
  testing::PolymulSpec other_spec{.seed = hemath::derive_stream_seed(kPropertySeed, 11),
                                  .n = c1.spec.n};
  const testing::PolymulCase c2 = testing::make_polymul_case(other_spec);
  const u64 q = c1.params.q;
  const std::size_t n = c1.spec.n;
  const hemath::NttTables tables(q, n);

  std::vector<u64> w1(n), w2(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    w1[i] = hemath::from_signed(c1.w[i], q);
    w2[i] = hemath::from_signed(c2.w[i], q);
    sum[i] = hemath::add_mod(w1[i], w2[i], q);
  }
  const std::vector<u64> lhs = hemath::negacyclic_multiply(tables, c1.ct, sum);
  const std::vector<u64> p1 = hemath::negacyclic_multiply(tables, c1.ct, w1);
  const std::vector<u64> p2 = hemath::negacyclic_multiply(tables, c1.ct, w2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lhs[i], hemath::add_mod(p1[i], p2[i], q)) << "coeff " << i;
  }
}

TEST(Property, Pow2NegacyclicRingIdentities) {
  // Ring axioms of the Z_{2^k} negacyclic product at every width regime,
  // including k = 64 where the mask is all-ones and reduction must be the
  // free u64 wraparound: commutativity, linearity, x * 1 == x,
  // x * (2^k - 1) == -x, and the negacyclic wraparound sign X^n == -1.
  std::mt19937_64 rng(kPropertySeed);
  const std::size_t n = 128;
  for (const int k : {8, 16, 32, 60, 64}) {
    const hemath::Pow2Ring ring(k);
    std::vector<u64> a(n), b(n), c(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = ring.reduce(rng());
      b[i] = ring.reduce(rng());
      c[i] = ring.reduce(rng());
    }

    // Commutativity: a * b == b * a.
    EXPECT_EQ(hemath::negacyclic_mul_pow2(a, b, ring), hemath::negacyclic_mul_pow2(b, a, ring))
        << "k=" << k;

    // Linearity: a * (b + c) == a * b + a * c.
    std::vector<u64> sum(n);
    for (std::size_t i = 0; i < n; ++i) sum[i] = ring.add(b[i], c[i]);
    const std::vector<u64> lhs = hemath::negacyclic_mul_pow2(a, sum, ring);
    const std::vector<u64> ab = hemath::negacyclic_mul_pow2(a, b, ring);
    const std::vector<u64> ac = hemath::negacyclic_mul_pow2(a, c, ring);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(lhs[i], ring.add(ab[i], ac[i])) << "k=" << k << " coeff " << i;
    }

    // Multiplicative identity: a * 1 == a.
    std::vector<u64> one(n, 0);
    one[0] = 1;
    EXPECT_EQ(hemath::negacyclic_mul_pow2(a, one, ring), a) << "k=" << k;

    // x * (2^k - 1) == -x: the all-ones residue is -1 in the ring.
    std::vector<u64> minus_one(n, 0);
    minus_one[0] = ring.mask;
    const std::vector<u64> neg = hemath::negacyclic_mul_pow2(a, minus_one, ring);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(neg[i], ring.neg(a[i])) << "k=" << k << " coeff " << i;
    }

    // Negacyclic wraparound sign: (X^j * a) at j = n/2 twice == X^n * a == -a.
    std::vector<u64> half_shift(n, 0);
    half_shift[n / 2] = 1;
    const std::vector<u64> once = hemath::negacyclic_mul_pow2(a, half_shift, ring);
    const std::vector<u64> twice = hemath::negacyclic_mul_pow2(once, half_shift, ring);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(twice[i], ring.neg(a[i])) << "k=" << k << " coeff " << i;
    }
  }
}

TEST(Property, Pow2WrapAtSixtyFourIsPlainUint64Wrap) {
  // k = 64 is the wrap-is-free width: the masked ring product must equal a
  // naive accumulation in plain u64 arithmetic (no mask applied anywhere),
  // because 2^64 | 2^64 — the hardware's natural overflow IS the reduction.
  std::mt19937_64 rng(kPropertySeed + 64);
  const std::size_t n = 64;
  const hemath::Pow2Ring ring(64);
  std::vector<u64> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  std::vector<u64> naive(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = a[i] * b[j];  // wraps mod 2^64 by definition
      if (i + j < n) naive[i + j] += prod;
      else naive[i + j - n] -= prod;
    }
  }
  EXPECT_EQ(hemath::negacyclic_mul_pow2(a, b, ring), naive);
}

TEST(Property, NttInverseIsIdentityAcrossPrimesAndDegrees) {
  // NTT o INTT == id across fresh NTT-friendly primes of several bit sizes
  // and all supported ring degrees. The 62-bit prime (q >= 2^61) takes the
  // fully reducing loop instead of the lazy Shoup kernel.
  for (std::size_t n : {std::size_t{16}, std::size_t{256}, std::size_t{2048}}) {
    for (int bits : {30, 45, 59, 62}) {
      const u64 q = bits < 62 ? hemath::find_ntt_prime(bits, n)
                              : hemath::next_prime_congruent(u64{1} << 61, 2 * n);
      hemath::Sampler sampler(hemath::derive_stream_seed(kPropertySeed, n * 100 + bits));
      const std::vector<u64> original = sampler.uniform_poly(q, n).coeffs();

      std::vector<u64> a = original;
      const hemath::NttTables tables(q, n);
      tables.forward(a);
      EXPECT_NE(a, original) << "forward NTT was a no-op (n=" << n << ", bits=" << bits << ")";
      tables.inverse(a);
      EXPECT_EQ(a, original) << "NttTables n=" << n << " bits=" << bits;
    }
  }
}

TEST(Property, SchoolbookAgreesWithNttOnGeneratedCases) {
  // The O(N^2) oracle and the fast path agree on generator workloads (the
  // same pairing the differential fuzzer uses, pinned here as a quick test).
  const testing::PolymulCase c = testing::make_polymul_case(
      {.seed = hemath::derive_stream_seed(kPropertySeed, 20), .n = 256});
  const u64 q = c.params.q;
  std::vector<u64> w(c.spec.n);
  for (std::size_t i = 0; i < c.spec.n; ++i) w[i] = hemath::from_signed(c.w[i], q);
  const hemath::NttTables tables(q, c.spec.n);
  EXPECT_EQ(hemath::negacyclic_multiply(tables, c.ct, w),
            hemath::negacyclic_multiply_schoolbook(q, c.ct, w))
      << c.spec.describe();
}

TEST(Property, EncryptionIsRandomized) {
  const bfv::BfvParams params = bfv::BfvParams::create(256, 14, 40);
  bfv::BfvContext ctx(params);
  hemath::Sampler sampler(3);
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PreparedPublicKey pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  bfv::Encryptor enc(ctx, sampler);
  const bfv::Plaintext pt = ctx.encode_signed({42});
  const bfv::Ciphertext a = enc.encrypt(pt, pk);
  const bfv::Ciphertext b = enc.encrypt(pt, pk);
  EXPECT_NE(a.c0, b.c0);  // semantic security: fresh randomness per call
  bfv::Decryptor dec(ctx, sk);
  EXPECT_EQ(dec.decrypt(a).poly, dec.decrypt(b).poly);
}

}  // namespace
}  // namespace flash
