#include "hemath/sampler.hpp"

#include <cmath>
#include <stdexcept>

#include "hemath/simd.hpp"

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
  ternary_into(q, p.coeffs());
  return p;
}

void Sampler::ternary_into(u64 q, std::span<u64> out) {
  // Chunk c -> c - 1 mod q; a rejected 3 is written and then overwritten,
  // because the index only advances on an accepted chunk.
  const u64 lift[4] = {q - 1, 0, 1, 0};
  std::size_t i = 0;
  while (i < out.size()) {
    u64 bits = rng_();
    for (int chunk = 0; chunk < 32 && i < out.size(); ++chunk, bits >>= 2) {
      const u64 c = bits & 3;
      out[i] = lift[c];
      i += c != 3 ? 1 : 0;
    }
  }
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
  while (live_ < cdt_.size() && cdt_[live_] < (u64{1} << 63)) ++live_;
}

i64 CdtGaussianSampler::sample(u64 word) const {
  const u64 u = word >> 1;                // 63 uniform bits
  const bool negative = (word & 1) != 0;  // sign bit
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

void CdtGaussianSampler::map_words(u64 q, std::span<u64> words) const {
  if (simd::level_at_least(simd::SimdLevel::kAvx512)) {
    detail::cdt_map_avx512(cdt_.data(), live_, q, words.data(), words.size());
    return;
  }
  if (simd::level_at_least(simd::SimdLevel::kAvx2)) {
    detail::cdt_map_avx2(cdt_.data(), live_, q, words.data(), words.size());
    return;
  }
  for (u64& w : words) w = detail::cdt_map_word(cdt_.data(), live_, q, w);
}

void CdtGaussianSampler::sample_into(u64 q, std::span<u64> out, std::mt19937_64& rng) const {
  for (u64& w : out) w = rng();
  map_words(q, out);
}

Poly CdtGaussianSampler::sample_poly(u64 q, std::size_t n, std::mt19937_64& rng) const {
  Poly p(q, n);
  sample_into(q, p.coeffs(), rng);
  return p;
}

}  // namespace flash::hemath
