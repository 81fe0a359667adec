// Negacyclic NTT: inverse property, convolution theorem vs schoolbook,
// linearity, ring identities, and the lazy Shoup kernel against direct
// evaluation.
#include <gtest/gtest.h>

#include <random>

#include "hemath/bitrev.hpp"
#include "hemath/ntt.hpp"
#include "hemath/primes.hpp"

namespace flash::hemath {
namespace {

std::vector<u64> random_poly(std::size_t n, u64 q, std::mt19937_64& rng) {
  std::vector<u64> a(n);
  for (auto& x : a) x = rng() % q;
  return a;
}

class NttTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    n_ = GetParam();
    q_ = find_ntt_prime(45, n_);
    tables_ = std::make_unique<NttTables>(q_, n_);
  }
  std::size_t n_;
  u64 q_;
  std::unique_ptr<NttTables> tables_;
};

TEST_P(NttTest, ForwardInverseIsIdentity) {
  std::mt19937_64 rng(11);
  const auto a = random_poly(n_, q_, rng);
  auto b = a;
  tables_->forward(b);
  EXPECT_NE(a, b);  // transform must do something
  tables_->inverse(b);
  EXPECT_EQ(a, b);
}

TEST_P(NttTest, ConvolutionMatchesSchoolbook) {
  std::mt19937_64 rng(12);
  const auto a = random_poly(n_, q_, rng);
  const auto b = random_poly(n_, q_, rng);
  EXPECT_EQ(negacyclic_multiply(*tables_, a, b), negacyclic_multiply_schoolbook(q_, a, b));
}

TEST_P(NttTest, MultiplyByOneIsIdentity) {
  std::mt19937_64 rng(13);
  const auto a = random_poly(n_, q_, rng);
  std::vector<u64> one(n_, 0);
  one[0] = 1;
  EXPECT_EQ(negacyclic_multiply(*tables_, a, one), a);
}

TEST_P(NttTest, MultiplyByXShiftsAndNegatesWraparound) {
  std::mt19937_64 rng(14);
  const auto a = random_poly(n_, q_, rng);
  std::vector<u64> x(n_, 0);
  x[1] = 1;
  const auto c = negacyclic_multiply(*tables_, a, x);
  // a * X = a[0] X + ... + a[N-1] X^N = -a[N-1] + a[0] X + ...
  EXPECT_EQ(c[0], neg_mod(a[n_ - 1], q_));
  for (std::size_t i = 1; i < n_; ++i) EXPECT_EQ(c[i], a[i - 1]);
}

TEST_P(NttTest, XToNIsMinusOne) {
  // (X^(N/2))^2 = X^N = -1 in the ring.
  std::vector<u64> half(n_, 0);
  half[n_ / 2] = 1;
  const auto c = negacyclic_multiply(*tables_, half, half);
  std::vector<u64> minus_one(n_, 0);
  minus_one[0] = q_ - 1;
  EXPECT_EQ(c, minus_one);
}

TEST_P(NttTest, TransformIsLinear) {
  std::mt19937_64 rng(15);
  auto a = random_poly(n_, q_, rng);
  auto b = random_poly(n_, q_, rng);
  std::vector<u64> sum(n_);
  for (std::size_t i = 0; i < n_; ++i) sum[i] = add_mod(a[i], b[i], q_);
  tables_->forward(a);
  tables_->forward(b);
  tables_->forward(sum);
  for (std::size_t i = 0; i < n_; ++i) EXPECT_EQ(sum[i], add_mod(a[i], b[i], q_));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttTest,
                         ::testing::Values(std::size_t{8}, std::size_t{64}, std::size_t{256},
                                           std::size_t{2048}));

// For q < 2^61 NttTables runs the lazy Shoup kernel, whose coefficients
// reach 4q between stages. These cases pin it where that headroom is
// tightest (59-bit primes), at the smallest degree (n = 8), on extreme
// inputs and on full reduction, against an independent reference: forward
// output i is the input evaluated at psi^(2*bitrev(i) + 1).
void expect_forward_matches_evaluation(const NttTables& tables, const std::vector<u64>& a) {
  const std::size_t n = tables.degree();
  const u64 q = tables.modulus();
  std::vector<u64> spec = a;
  tables.forward(spec);
  const int log_n = log2_exact(n);
  const std::size_t step = n <= 256 ? 1 : n / 64;  // sample large degrees
  for (std::size_t i = 0; i < n; i += step) {
    const u64 x = pow_mod(tables.psi(), 2 * u64{bit_reverse(static_cast<std::uint32_t>(i), log_n)} + 1, q);
    u64 value = 0;
    for (std::size_t k = n; k-- > 0;) value = add_mod(mul_mod(value, x, q), a[k], q);
    ASSERT_EQ(spec[i], value) << "index " << i << " n=" << n << " q=" << q;
  }
}

class ShoupNtt : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ShoupNtt, MatchesReferenceForward) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  const NttTables tables(q, n);
  std::mt19937_64 rng(n * 3 + bits);
  expect_forward_matches_evaluation(tables, random_poly(n, q, rng));
}

TEST_P(ShoupNtt, InverseRoundTrip) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  const NttTables tables(q, n);
  std::mt19937_64 rng(n * 5 + bits);
  const auto a = random_poly(n, q, rng);
  auto b = a;
  tables.forward(b);
  tables.inverse(b);
  EXPECT_EQ(a, b);
}

TEST_P(ShoupNtt, OutputsFullyReduced) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  const NttTables tables(q, n);
  std::mt19937_64 rng(n * 7 + bits);
  auto a = random_poly(n, q, rng);
  tables.forward(a);
  for (u64 x : a) EXPECT_LT(x, q);
  tables.inverse(a);
  for (u64 x : a) EXPECT_LT(x, q);
}

INSTANTIATE_TEST_SUITE_P(Cases, ShoupNtt,
                         ::testing::Combine(::testing::Values(30, 45, 59),
                                            ::testing::Values(std::size_t{8}, std::size_t{256},
                                                              std::size_t{4096})));

TEST(ShoupNttEdge, ExtremeCoefficients) {
  const std::size_t n = 64;
  const u64 q = find_ntt_prime(59, n);
  const NttTables tables(q, n);
  std::vector<u64> a(n, q - 1);  // all coefficients at the modulus edge
  a[0] = 0;
  expect_forward_matches_evaluation(tables, a);
  auto b = a;
  tables.forward(b);
  tables.inverse(b);
  EXPECT_EQ(a, b);
}

TEST(ShoupNttEdge, ConvolutionAgreesWithReference) {
  const std::size_t n = 128;
  const u64 q = find_ntt_prime(50, n);
  const NttTables tables(q, n);
  std::mt19937_64 rng(99);
  const auto a = random_poly(n, q, rng);
  const auto b = random_poly(n, q, rng);
  EXPECT_EQ(negacyclic_multiply(tables, a, b), negacyclic_multiply_schoolbook(q, a, b));
}

TEST(Ntt, RejectsWrongModulus) {
  EXPECT_THROW(NttTables(17, 64), std::invalid_argument);  // 17 != 1 mod 128
}

TEST(Ntt, RejectsNonPowerOfTwo) {
  EXPECT_THROW(NttTables(find_ntt_prime(30, 64), 48), std::invalid_argument);
}

TEST(Ntt, SchoolbookSparseInputs) {
  // Sparse polynomials exercise the skip-zero fast path.
  const u64 q = find_ntt_prime(30, 32);
  NttTables tables(q, 32);
  std::vector<u64> a(32, 0), b(32, 0);
  a[3] = 5;
  b[30] = 7;
  const auto expect = negacyclic_multiply_schoolbook(q, a, b);
  // X^3 * X^30 = X^33 = -X^1.
  std::vector<u64> manual(32, 0);
  manual[1] = neg_mod(35 % q, q);
  EXPECT_EQ(expect, manual);
  EXPECT_EQ(negacyclic_multiply(tables, a, b), manual);
}

}  // namespace
}  // namespace flash::hemath
