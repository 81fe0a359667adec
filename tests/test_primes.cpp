// Prime generation and root-of-unity tests.
#include <gtest/gtest.h>

#include "hemath/modular.hpp"
#include "hemath/primes.hpp"

namespace flash::hemath {
namespace {

TEST(Primes, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
}

TEST(Primes, KnownLargePrimes) {
  EXPECT_TRUE(is_prime(998244353));            // 119 * 2^23 + 1
  EXPECT_TRUE(is_prime((u64{1} << 61) - 1));   // Mersenne
  EXPECT_FALSE(is_prime((u64{1} << 61) + 1));  // composite
  EXPECT_TRUE(is_prime(4179340454199820289ULL));  // 29 * 2^57 + 1
}

TEST(Primes, CarmichaelNumbersRejected) {
  for (u64 n : {561ULL, 1105ULL, 1729ULL, 41041ULL, 825265ULL}) {
    EXPECT_FALSE(is_prime(n)) << n;
  }
}

TEST(Primes, NextPrimeCongruent) {
  const u64 q = next_prime_congruent(100, 8);
  EXPECT_TRUE(is_prime(q));
  EXPECT_EQ(q % 8, 1u);
  EXPECT_GE(q, 100u);
}

class NttPrimeTest : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(NttPrimeTest, FindNttPrime) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  EXPECT_TRUE(is_prime(q));
  EXPECT_EQ((q - 1) % (2 * n), 0u);
  EXPECT_GE(q, u64{1} << (bits - 1));
  EXPECT_LT(q, u64{1} << bits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttPrimeTest,
                         ::testing::Combine(::testing::Values(20, 30, 45, 59),
                                            ::testing::Values(std::size_t{256}, std::size_t{4096})));

TEST(Primes, PrimitiveRootHasFullOrder) {
  for (u64 q : {17ULL, 97ULL, 998244353ULL}) {
    const u64 g = primitive_root(q);
    // g^((q-1)/p) != 1 for every prime factor p of q-1; spot-check halves.
    EXPECT_NE(pow_mod(g, (q - 1) / 2, q), 1u);
    EXPECT_EQ(pow_mod(g, q - 1, q), 1u);
  }
}

TEST(Primes, RootOfUnityExactOrder) {
  const u64 q = find_ntt_prime(30, 512);
  const u64 m = 1024;  // 2N
  const u64 w = root_of_unity(q, m);
  EXPECT_EQ(pow_mod(w, m, q), 1u);
  EXPECT_NE(pow_mod(w, m / 2, q), 1u);  // primitive: order exactly m
}

TEST(Primes, RootOfUnityRejectsBadOrder) {
  EXPECT_THROW(root_of_unity(17, 5), std::invalid_argument);  // 5 does not divide 16
}

TEST(Primes, FindNttPrimeRejectsBadArgs) {
  EXPECT_THROW(find_ntt_prime(3, 1024), std::invalid_argument);
  EXPECT_THROW(find_ntt_prime(30, 1000), std::invalid_argument);  // not a power of two
}

}  // namespace
}  // namespace flash::hemath
