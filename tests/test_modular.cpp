// Unit tests for modular arithmetic: add/sub/mul/pow/inv and the signed
// lifts, against the 128-bit reference.
#include <gtest/gtest.h>

#include <random>

#include "hemath/modular.hpp"

namespace flash::hemath {
namespace {

TEST(Modular, AddSubNegBasics) {
  const u64 q = 17;
  EXPECT_EQ(add_mod(9, 9, q), 1u);
  EXPECT_EQ(add_mod(0, 0, q), 0u);
  EXPECT_EQ(add_mod(16, 16, q), 15u);
  EXPECT_EQ(sub_mod(3, 5, q), 15u);
  EXPECT_EQ(sub_mod(5, 5, q), 0u);
  EXPECT_EQ(neg_mod(0, q), 0u);
  EXPECT_EQ(neg_mod(1, q), 16u);
}

TEST(Modular, MulModLargeOperands) {
  const u64 q = (u64{1} << 61) - 1;  // Mersenne prime 2^61-1
  const u64 a = q - 1;
  // (q-1)^2 = q^2 - 2q + 1 == 1 mod q.
  EXPECT_EQ(mul_mod(a, a, q), 1u);
}

TEST(Modular, MulModPow2FastPathBitIdentity) {
  // Pins the power-of-two mask fast path in mul_mod (modular.hpp) against
  // the 128-bit remainder it replaced: every pow2 modulus must produce the
  // exact residue of (a * b) % q, and prime moduli must be untouched.
  std::mt19937_64 rng(0x10d2a7);
  const auto reference = [](u64 a, u64 b, u64 q) {
    return static_cast<u64>((static_cast<u128>(a) * b) % q);
  };
  for (const int k : {1, 2, 8, 16, 32, 49, 62, 63}) {
    const u64 q = u64{1} << k;
    for (int trial = 0; trial < 200; ++trial) {
      const u64 a = rng(), b = rng();
      EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "k=" << k;
    }
    // Edge operands: 0, 1, q-1, and unreduced values just past the modulus.
    for (const u64 a : {u64{0}, u64{1}, q - 1, q, q + 1, ~u64{0}}) {
      for (const u64 b : {u64{0}, u64{1}, q - 1, q, q + 1, ~u64{0}}) {
        EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "k=" << k;
      }
    }
  }
  // Non-pow2 moduli must still go through the 128-bit remainder path.
  for (const u64 q : {u64{3}, u64{1000003}, (u64{1} << 61) - 1, (u64{1} << 32) + 1}) {
    for (int trial = 0; trial < 100; ++trial) {
      const u64 a = rng() % q, b = rng() % q;
      EXPECT_EQ(mul_mod(a, b, q), reference(a, b, q)) << "q=" << q;
    }
  }
}

TEST(Modular, PowModMatchesRepeatedMul) {
  const u64 q = 1000003;
  u64 acc = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(pow_mod(7, static_cast<u64>(e), q), acc);
    acc = mul_mod(acc, 7, q);
  }
}

TEST(Modular, PowModFermat) {
  const u64 q = 998244353;  // prime
  for (u64 a : {2ULL, 3ULL, 12345ULL, 998244352ULL}) {
    EXPECT_EQ(pow_mod(a, q - 1, q), 1u);
  }
}

TEST(Modular, InvModRoundTrip) {
  const u64 q = 998244353;
  std::mt19937_64 rng(1);
  for (int i = 0; i < 200; ++i) {
    const u64 a = rng() % (q - 1) + 1;
    const u64 inv = inv_mod(a, q);
    EXPECT_EQ(mul_mod(a, inv, q), 1u) << "a=" << a;
  }
}

TEST(Modular, InvModNonInvertibleThrows) {
  EXPECT_THROW(inv_mod(6, 9), std::invalid_argument);
  EXPECT_THROW(inv_mod(0, 7), std::invalid_argument);
}

TEST(Modular, InvModCompositeModulus) {
  // 3 * 7 = 21 == 1 mod 10.
  EXPECT_EQ(inv_mod(3, 10), 7u);
}

TEST(Modular, SignedLiftRoundTrip) {
  const u64 q = 101;
  for (u64 a = 0; a < q; ++a) {
    const i64 s = to_signed(a, q);
    EXPECT_LE(s, static_cast<i64>(q / 2));
    EXPECT_GT(s, -static_cast<i64>(q) / 2 - 1);
    EXPECT_EQ(from_signed(s, q), a);
  }
}

TEST(Modular, FromSignedHandlesVeryNegative) {
  EXPECT_EQ(from_signed(-1, 7), 6u);
  EXPECT_EQ(from_signed(-15, 7), 6u);
  EXPECT_EQ(from_signed(-14, 7), 0u);
}

}  // namespace
}  // namespace flash::hemath
