// Distribution sanity checks for the HE samplers (deterministic seeds).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bfv/context.hpp"
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

  // Uniform by a chi-square test over 2^20 coefficients, drawn 4,096 at a
  // time as encryption draws u: 13.82 is the 0.1% critical value at two
  // degrees of freedom.
  std::vector<u64> u(4096);
  double big[3] = {0, 0, 0};
  const std::size_t total = std::size_t{1} << 20;
  for (std::size_t drawn = 0; drawn < total; drawn += u.size()) {
    s.ternary_into(q, u);
    for (u64 c : u) {
      const i64 v = to_signed(c, q);
      ASSERT_GE(v, -1);
      ASSERT_LE(v, 1);
      ++big[v + 1];
    }
  }
  const double expected = static_cast<double>(total) / 3.0;
  double chi2 = 0;
  for (double c : big) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 13.82) << big[0] << " " << big[1] << " " << big[2];
}

TEST(Sampler, ErrorVarianceMatchesSigma) {
  // The certifier's fresh-noise term sigma^2 (1 + 4n/3) takes the error
  // variance to be sigma^2. Draw 2^22 errors exactly as encryption does
  // (the context's sampler through a Sampler stream, one polynomial at a
  // time) and require the variance within 4 standard errors of sigma^2. A
  // rounded continuous Gaussian reads sigma^2 + 1/12 and fails at z > 10.
  const bfv::BfvContext ctx(bfv::BfvParams::create(4096, 20, 49));
  const auto& p = ctx.params();
  Sampler s(2024);
  std::vector<u64> e(p.n);
  const std::size_t total = std::size_t{1} << 22;
  double sum2 = 0, sum4 = 0;
  for (std::size_t drawn = 0; drawn < total; drawn += p.n) {
    ctx.error_sampler().sample_into(p.q, e, s.rng());
    for (u64 c : e) {
      const double x = static_cast<double>(to_signed(c, p.q));
      const double x2 = x * x;
      sum2 += x2;
      sum4 += x2 * x2;
    }
  }
  const double n = static_cast<double>(total);
  const double var = sum2 / n;  // about the known mean 0
  const double se = std::sqrt((sum4 / n - var * var) / n);
  const double sigma2 = p.error_sigma * p.error_sigma;
  const double z = (var - sigma2) / se;
  RecordProperty("variance_z", std::to_string(z));
  EXPECT_LT(std::abs(z), 4.0) << "variance " << var << " vs sigma^2 " << sigma2 << " (z = " << z
                              << ")";
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
