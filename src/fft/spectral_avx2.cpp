// AVX2 block multiply-accumulate for the spectral pipeline. Two complex
// values per 256-bit vector, AoS layout ([re0 im0 re1 im1]).
//
// Bit-identity with the scalar kernel: with the ciphertext value c
// duplicated into [c.re c.re] and [c.im c.im], vaddsubpd of w*c.re and
// swap(w)*c.im yields (w.re*c.re - w.im*c.im, w.im*c.re + w.re*c.im) —
// the scalar kernel's two products and one sub/add per component, each
// rounded once (multiplication and addition commute exactly in IEEE), and
// intrinsics are never FMA-contracted. tests/test_simd_kernels.cpp pins
// every level against a std::complex `acc += c * w` reference.
#include "fft/fft_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace flash::fft::detail {

void spectral_mac_avx2(const cplx* const* ct, std::size_t components, const cplx* const* w,
                       std::size_t outputs, cplx* const* acc, std::size_t begin,
                       std::size_t end) {
  const bool two = components == 2;
  const double* c0 = reinterpret_cast<const double*>(ct[0]);
  const double* c1 = reinterpret_cast<const double*>(two ? ct[1] : ct[0]);
  for (std::size_t k = begin; k < end; k += 2) {
    const __m256d v0 = _mm256_loadu_pd(c0 + 2 * k);
    const __m256d v1 = _mm256_loadu_pd(c1 + 2 * k);
    const __m256d r0 = _mm256_movedup_pd(v0);       // [c.re c.re ...]
    const __m256d i0 = _mm256_permute_pd(v0, 0xF);  // [c.im c.im ...]
    const __m256d r1 = _mm256_movedup_pd(v1);
    const __m256d i1 = _mm256_permute_pd(v1, 0xF);
    for (std::size_t b = 0; b < outputs; ++b) {
      const __m256d vw = _mm256_loadu_pd(reinterpret_cast<const double*>(w[b]) + 2 * k);
      const __m256d ws = _mm256_permute_pd(vw, 0x5);  // [w.im w.re ...]
      double* a0 = reinterpret_cast<double*>(acc[b]) + 2 * k;
      const __m256d t0 = _mm256_addsub_pd(_mm256_mul_pd(vw, r0), _mm256_mul_pd(ws, i0));
      _mm256_storeu_pd(a0, _mm256_add_pd(_mm256_loadu_pd(a0), t0));
      if (two) {
        double* a1 = reinterpret_cast<double*>(acc[outputs + b]) + 2 * k;
        const __m256d t1 = _mm256_addsub_pd(_mm256_mul_pd(vw, r1), _mm256_mul_pd(ws, i1));
        _mm256_storeu_pd(a1, _mm256_add_pd(_mm256_loadu_pd(a1), t1));
      }
    }
  }
}

}  // namespace flash::fft::detail

#else  // !__AVX2__ — non-x86 build: unreachable stub (dispatch never selects AVX2).

#include <cstdlib>

namespace flash::fft::detail {
void spectral_mac_avx2(const cplx* const*, std::size_t, const cplx* const*, std::size_t,
                       cplx* const*, std::size_t, std::size_t) {
  std::abort();
}
}  // namespace flash::fft::detail

#endif
