#include "hemath/sampler.hpp"

#include <cmath>

namespace flash::hemath {

u64 Sampler::uniform_mod(u64 q) {
  std::uniform_int_distribution<u64> dist(0, q - 1);
  return dist(rng_);
}

Poly Sampler::uniform_poly(u64 q, std::size_t n) {
  Poly p(q, n);
  for (std::size_t i = 0; i < n; ++i) p[i] = uniform_mod(q);
  return p;
}

Poly Sampler::ternary_poly(u64 q, std::size_t n) {
  Poly p(q, n);
  std::uniform_int_distribution<int> dist(-1, 1);
  for (std::size_t i = 0; i < n; ++i) p[i] = from_signed(dist(rng_), q);
  return p;
}

Poly Sampler::gaussian_poly(u64 q, std::size_t n, double sigma) {
  Poly p(q, n);
  std::normal_distribution<double> dist(0.0, sigma);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = from_signed(static_cast<i64>(std::llround(dist(rng_))), q);
  }
  return p;
}

CdtGaussianSampler::CdtGaussianSampler(double sigma, double tail_cut) : sigma_(sigma) {
  if (sigma <= 0.0 || tail_cut <= 0.0) {
    throw std::invalid_argument("CdtGaussianSampler: sigma and tail_cut must be positive");
  }
  const i64 tail = static_cast<i64>(std::ceil(sigma * tail_cut));
  // Half-distribution weights: zero carries half its mass in each sign, so a
  // uniform sign bit over the magnitude table reproduces the full Gaussian.
  std::vector<double> weights(static_cast<std::size_t>(tail) + 1);
  double total = 0.0;
  for (i64 k = 0; k <= tail; ++k) {
    const double rho = std::exp(-static_cast<double>(k) * static_cast<double>(k) /
                                (2.0 * sigma * sigma));
    weights[static_cast<std::size_t>(k)] = k == 0 ? rho / 2.0 : rho;
    total += weights[static_cast<std::size_t>(k)];
  }
  cdt_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    acc += weights[k];
    cdt_[k] = static_cast<u64>(acc / total * 9223372036854775808.0 /* 2^63 */);
  }
  cdt_.back() = u64{1} << 63;  // guard against rounding shortfall
}

i64 CdtGaussianSampler::sample(std::mt19937_64& rng) const {
  const u64 bits = rng();
  const u64 u = bits >> 1;              // 63 uniform bits
  const bool negative = (bits & 1) != 0;  // sign bit
  std::size_t lo = 0, hi = cdt_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdt_[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const i64 magnitude = static_cast<i64>(lo);
  return negative ? -magnitude : magnitude;
}

Poly CdtGaussianSampler::sample_poly(u64 q, std::size_t n, std::mt19937_64& rng) const {
  Poly p(q, n);
  for (std::size_t i = 0; i < n; ++i) p[i] = from_signed(sample(rng), q);
  return p;
}

}  // namespace flash::hemath
