// Distribution sanity checks for the HE samplers (deterministic seeds).
#include <gtest/gtest.h>

#include <cmath>

#include "hemath/sampler.hpp"

namespace flash::hemath {
namespace {

TEST(Sampler, TernaryValuesOnly) {
  Sampler s(101);
  const u64 q = 1000003;
  const Poly p = s.ternary_poly(q, 4096);
  std::size_t counts[3] = {0, 0, 0};
  for (std::size_t i = 0; i < p.degree(); ++i) {
    const i64 v = to_signed(p[i], q);
    ASSERT_GE(v, -1);
    ASSERT_LE(v, 1);
    ++counts[v + 1];
  }
  // Roughly uniform over {-1, 0, 1}.
  for (auto c : counts) {
    EXPECT_GT(c, 4096u / 5);
    EXPECT_LT(c, 4096u / 2);
  }
}

TEST(Sampler, GaussianSigma) {
  Sampler s(103);
  const u64 q = u64{1} << 40;
  const double sigma = 3.2;
  const Poly p = s.gaussian_poly(q, 1 << 14, sigma);
  double var = 0;
  i64 max_mag = 0;
  for (std::size_t i = 0; i < p.degree(); ++i) {
    const i64 v = to_signed(p[i], q);
    var += static_cast<double>(v) * static_cast<double>(v);
    max_mag = std::max(max_mag, v < 0 ? -v : v);
  }
  var /= static_cast<double>(p.degree());
  EXPECT_NEAR(std::sqrt(var), sigma, 0.3);
  EXPECT_LT(max_mag, static_cast<i64>(8 * sigma));  // tail bound
}

TEST(Sampler, UniformCoversRange) {
  Sampler s(104);
  const u64 q = 17;
  std::vector<int> seen(q, 0);
  for (int i = 0; i < 2000; ++i) ++seen[s.uniform_mod(q)];
  for (u64 v = 0; v < q; ++v) EXPECT_GT(seen[v], 0) << v;
}

TEST(Sampler, DeterministicWithSeed) {
  Sampler a(7), b(7);
  EXPECT_EQ(a.uniform_poly(97, 64), b.uniform_poly(97, 64));
  Sampler c(8);
  EXPECT_NE(a.uniform_poly(97, 64), c.uniform_poly(97, 64));
}


TEST(CdtSampler, MeanVarianceAndTail) {
  const double sigma = 3.2;
  CdtGaussianSampler cdt(sigma);
  std::mt19937_64 rng(7);
  const int samples = 1 << 16;
  double mean = 0, var = 0;
  i64 max_mag = 0;
  std::vector<int> hist(2 * cdt.max_magnitude() + 1, 0);
  for (int i = 0; i < samples; ++i) {
    const i64 v = cdt.sample(rng);
    mean += static_cast<double>(v);
    var += static_cast<double>(v) * static_cast<double>(v);
    max_mag = std::max(max_mag, v < 0 ? -v : v);
    ++hist[static_cast<std::size_t>(v + cdt.max_magnitude())];
  }
  mean /= samples;
  var = var / samples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), sigma, 0.15);
  EXPECT_LE(max_mag, cdt.max_magnitude());
  // P(X = 0) matches the closed form within sampling noise.
  double z = 0;
  for (i64 k = -cdt.max_magnitude(); k <= cdt.max_magnitude(); ++k) {
    z += std::exp(-double(k) * double(k) / (2 * sigma * sigma));
  }
  const double p0 = 1.0 / z;
  EXPECT_NEAR(hist[static_cast<std::size_t>(cdt.max_magnitude())] / double(samples), p0, 0.01);
}

TEST(CdtSampler, SymmetricDistribution) {
  CdtGaussianSampler cdt(2.0);
  std::mt19937_64 rng(8);
  long long pos = 0, neg = 0;
  for (int i = 0; i < 40000; ++i) {
    const i64 v = cdt.sample(rng);
    pos += v > 0;
    neg += v < 0;
  }
  EXPECT_NEAR(static_cast<double>(pos) / neg, 1.0, 0.06);
}

TEST(CdtSampler, PolySamplesWithinTail) {
  CdtGaussianSampler cdt(3.2, 6.0);
  std::mt19937_64 rng(9);
  const u64 q = u64{1} << 40;
  const Poly p = cdt.sample_poly(q, 2048, rng);
  for (std::size_t i = 0; i < p.degree(); ++i) {
    const i64 v = to_signed(p[i], q);
    EXPECT_LE(std::abs(v), cdt.max_magnitude());
  }
}

TEST(CdtSampler, RejectsBadParams) {
  EXPECT_THROW(CdtGaussianSampler(0.0), std::invalid_argument);
  EXPECT_THROW(CdtGaussianSampler(1.0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace flash::hemath
