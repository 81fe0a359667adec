#include "fft/spectral.hpp"

#include <cmath>
#include <stdexcept>

#include "fft/fft_kernels.hpp"
#include "hemath/simd.hpp"

namespace flash::fft {

namespace detail {

void spectral_mac_scalar(const cplx* const* ct, std::size_t components, const cplx* const* w,
                         std::size_t outputs, cplx* const* acc, std::size_t begin,
                         std::size_t end) {
  for (std::size_t b = 0; b < outputs; ++b) {
    for (std::size_t k = begin; k < end; ++k) {
      const double wr = w[b][k].real();
      const double wi = w[b][k].imag();
      for (std::size_t c = 0; c < components; ++c) {
        const double cr = ct[c][k].real();
        const double ci = ct[c][k].imag();
        cplx& a = acc[c * outputs + b][k];
        a = {a.real() + (cr * wr - ci * wi), a.imag() + (cr * wi + ci * wr)};
      }
    }
  }
}

void round_to_zq_scalar(const double* x, std::size_t count, std::uint64_t q, std::uint64_t* out) {
  const double inv_q = 1.0 / static_cast<double>(q);
  const auto sq = static_cast<hemath::i64>(q);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = std::fabs(x[i]);
    if (!(a < 0x1p62)) {
      out[i] = hemath::from_signed(static_cast<hemath::i64>(std::llround(x[i])), q);
      continue;
    }
    const auto whole = static_cast<std::uint64_t>(a);
    const std::uint64_t mag = whole + (a - static_cast<double>(whole) >= 0.5 ? 1 : 0);
    auto r = static_cast<hemath::i64>(
        mag - static_cast<std::uint64_t>(static_cast<double>(mag) * inv_q) * q);
    while (r < 0) r += sq;
    while (r >= sq) r -= sq;
    out[i] = x[i] < 0 && r != 0 ? q - static_cast<std::uint64_t>(r) : static_cast<std::uint64_t>(r);
  }
}

}  // namespace detail

void spectral_mac_block(std::span<const cplx* const> ct, std::span<const cplx* const> w,
                        std::span<cplx* const> acc, std::size_t half) {
  if (ct.empty() || ct.size() > 2) {
    throw std::invalid_argument("spectral_mac_block: one or two ciphertext spectra");
  }
  if (acc.size() != ct.size() * w.size()) {
    throw std::invalid_argument("spectral_mac_block: need one sum per (component, output)");
  }
  using hemath::simd::SimdLevel;
  std::size_t vec_end = 0;  // the vector kernels run [0, vec_end), the scalar one the rest
  if (hemath::simd::level_at_least(SimdLevel::kAvx512)) {
    vec_end = half & ~std::size_t{3};
    detail::spectral_mac_avx512(ct.data(), ct.size(), w.data(), w.size(), acc.data(), 0, vec_end);
  } else if (hemath::simd::level_at_least(SimdLevel::kAvx2)) {
    vec_end = half & ~std::size_t{1};
    detail::spectral_mac_avx2(ct.data(), ct.size(), w.data(), w.size(), acc.data(), 0, vec_end);
  }
  detail::spectral_mac_scalar(ct.data(), ct.size(), w.data(), w.size(), acc.data(), vec_end, half);
}

void round_to_zq(std::span<const double> x, hemath::u64 q, hemath::u64* out) {
  if (hemath::simd::level_at_least(hemath::simd::SimdLevel::kAvx512)) {
    detail::round_to_zq_avx512(x.data(), x.size(), q, out);
  } else {
    detail::round_to_zq_scalar(x.data(), x.size(), q, out);
  }
}

}  // namespace flash::fft
