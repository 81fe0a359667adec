#include "fft/complex_fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/fft_kernels.hpp"
#include "hemath/bitrev.hpp"
#include "hemath/simd.hpp"

namespace flash::fft {

FftPlan::FftPlan(std::size_t m, int sign) : m_(m), sign_(sign) {
  if (m < 2 || (m & (m - 1)) != 0) throw std::invalid_argument("FftPlan: size must be a power of two >= 2");
  if (sign != 1 && sign != -1) throw std::invalid_argument("FftPlan: sign must be +/-1");
  log_m_ = hemath::log2_exact(m);
  root_pow_.resize(m / 2);
  const double base = 2.0 * std::numbers::pi * sign / static_cast<double>(m);
  for (std::size_t j = 0; j < m / 2; ++j) {
    root_pow_[j] = std::polar(1.0, base * static_cast<double>(j));
  }
  // Flatten the per-stage twiddle rows (same doubles as root_pow_, copied,
  // so the scalar and vector stage loops read identical values unit-stride).
  stage_tw_.resize(m - 1);
  for (int s = 1; s <= log_m_; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::size_t stride = m_ >> s;
    for (std::size_t j = 0; j < half; ++j) {
      stage_tw_[(half - 1) + j] = root_pow_[j * stride];
    }
  }
}

void FftPlan::forward(std::span<cplx> a) const {
  if (a.size() != m_) throw std::invalid_argument("FftPlan::forward: size mismatch");
  hemath::bit_reverse_permute(a);
  const bool avx2 = hemath::simd::level_at_least(hemath::simd::SimdLevel::kAvx2);
  for (int s = 1; s <= log_m_; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::size_t len = half << 1;
    const cplx* tw = stage_tw_.data() + (half - 1);
    if (avx2 && half >= 2) {
      detail::fft_stage_avx2(a.data(), tw, m_, half);
      continue;
    }
    for (std::size_t block = 0; block < m_; block += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const cplx w = tw[j];
        cplx& u = a[block + j];
        cplx& v = a[block + j + half];
        const cplx t = v * w;
        v = u - t;
        u = u + t;
      }
    }
  }
}

void FftPlan::inverse(std::span<cplx> a) const {
  if (a.size() != m_) throw std::invalid_argument("FftPlan::inverse: size mismatch");
  for (auto& x : a) x = std::conj(x);
  forward(a);
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (auto& x : a) x = std::conj(x) * inv_m;
}

std::vector<cplx> dft_reference(const std::vector<cplx>& a, int sign) {
  const std::size_t m = a.size();
  std::vector<cplx> out(m, cplx{0.0, 0.0});
  const double base = 2.0 * std::numbers::pi * sign / static_cast<double>(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      out[k] += a[j] * std::polar(1.0, base * static_cast<double>(j * k % m));
    }
  }
  return out;
}

}  // namespace flash::fft
