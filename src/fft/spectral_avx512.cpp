// AVX-512 spectral point-wise kernels: the block multiply-accumulate (four
// complex values per 512-bit vector, AoS layout) and the exact rounding of
// an inverse transform back to Z_q (eight lanes). Compiled with -mavx512f
// -mavx512dq in its own TU; fft/spectral.cpp dispatches here only when the
// active level grants AVX-512.
//
// Bit-identity of the MAC: AVX-512 has no addsub, so the ciphertext's
// imaginary parts are duplicated with the even lanes negated,
// [-c.im c.im ...]. Then w*c.re + swap(w)*[-c.im c.im] is
// (w.re*c.re + (-(w.im*c.im)), w.im*c.re + w.re*c.im): negation is exact
// and commutes with round-to-nearest products, and x + (-y) is IEEE's
// definition of x - y, so every lane is the scalar kernel's result.
//
// Bit-identity of the rounding: every lane runs the scalar rule's
// operations — truncation (cvttpd_epu64), exact u64 -> double conversion
// of the whole part and of the magnitude (cvtepu64_pd, round to nearest),
// the quotient from 1/q, the wrapping 64-bit product (mullo_epi64) and the
// signed corrections, repeated until no lane needs one. Lanes the scalar
// rule hands to llround (|x| >= 2^62, NaN) compute on zero and are then
// overwritten by the scalar kernel.
#include "fft/fft_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace flash::fft::detail {

namespace {
// The shuffles take their full-mask maskz forms: gcc 12's unmasked forms
// pass _mm512_undefined_pd() and warn -Wmaybe-uninitialized about it.
constexpr __mmask8 kAll = 0xFF;
}  // namespace

void spectral_mac_avx512(const cplx* const* ct, std::size_t components, const cplx* const* w,
                         std::size_t outputs, cplx* const* acc, std::size_t begin,
                         std::size_t end) {
  const bool two = components == 2;
  const double* c0 = reinterpret_cast<const double*>(ct[0]);
  const double* c1 = reinterpret_cast<const double*>(two ? ct[1] : ct[0]);
  const __m512d neg_even = _mm512_castsi512_pd(
      _mm512_set_epi64(0, INT64_MIN, 0, INT64_MIN, 0, INT64_MIN, 0, INT64_MIN));
  for (std::size_t k = begin; k < end; k += 4) {
    const __m512d v0 = _mm512_loadu_pd(c0 + 2 * k);
    const __m512d v1 = _mm512_loadu_pd(c1 + 2 * k);
    // r = [c.re c.re ...], i = [-c.im c.im ...]
    const __m512d r0 = _mm512_maskz_movedup_pd(kAll, v0);
    const __m512d i0 = _mm512_xor_pd(_mm512_maskz_permute_pd(kAll, v0, 0xFF), neg_even);
    const __m512d r1 = _mm512_maskz_movedup_pd(kAll, v1);
    const __m512d i1 = _mm512_xor_pd(_mm512_maskz_permute_pd(kAll, v1, 0xFF), neg_even);
    for (std::size_t b = 0; b < outputs; ++b) {
      const __m512d vw = _mm512_loadu_pd(reinterpret_cast<const double*>(w[b]) + 2 * k);
      const __m512d ws = _mm512_maskz_permute_pd(kAll, vw, 0x55);  // [w.im w.re]
      double* a0 = reinterpret_cast<double*>(acc[b]) + 2 * k;
      const __m512d t0 = _mm512_add_pd(_mm512_mul_pd(vw, r0), _mm512_mul_pd(ws, i0));
      _mm512_storeu_pd(a0, _mm512_add_pd(_mm512_loadu_pd(a0), t0));
      if (two) {
        double* a1 = reinterpret_cast<double*>(acc[outputs + b]) + 2 * k;
        const __m512d t1 = _mm512_add_pd(_mm512_mul_pd(vw, r1), _mm512_mul_pd(ws, i1));
        _mm512_storeu_pd(a1, _mm512_add_pd(_mm512_loadu_pd(a1), t1));
      }
    }
  }
}

void round_to_zq_avx512(const double* x, std::size_t count, std::uint64_t q, std::uint64_t* out) {
  const __m512d inv_q = _mm512_set1_pd(1.0 / static_cast<double>(q));
  const __m512d limit = _mm512_set1_pd(0x1p62);
  const __m512d one_half = _mm512_set1_pd(0.5);
  const __m512d zero_pd = _mm512_setzero_pd();
  const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d abs_x = _mm512_abs_pd(xv);
    const __mmask8 fits = _mm512_cmp_pd_mask(abs_x, limit, _CMP_LT_OQ);  // false for NaN
    const __m512d a = _mm512_maskz_mov_pd(fits, abs_x);
    const __m512i whole = _mm512_cvttpd_epu64(a);
    const __m512d frac = _mm512_sub_pd(a, _mm512_cvtepu64_pd(whole));
    const __mmask8 up = _mm512_cmp_pd_mask(frac, one_half, _CMP_GE_OQ);
    const __m512i mag = _mm512_mask_add_epi64(whole, up, whole, one);
    const __m512i quot = _mm512_cvttpd_epu64(_mm512_mul_pd(_mm512_cvtepu64_pd(mag), inv_q));
    __m512i r = _mm512_sub_epi64(mag, _mm512_mullo_epi64(quot, vq));
    for (__mmask8 m = _mm512_cmplt_epi64_mask(r, zero); m != 0;
         m = _mm512_cmplt_epi64_mask(r, zero)) {
      r = _mm512_mask_add_epi64(r, m, r, vq);
    }
    for (__mmask8 m = _mm512_cmpge_epi64_mask(r, vq); m != 0; m = _mm512_cmpge_epi64_mask(r, vq)) {
      r = _mm512_mask_sub_epi64(r, m, r, vq);
    }
    const __mmask8 negate =
        _mm512_mask_test_epi64_mask(_mm512_cmp_pd_mask(xv, zero_pd, _CMP_LT_OQ), r, r);
    r = _mm512_mask_sub_epi64(r, negate, vq, r);
    _mm512_storeu_si512(out + i, r);
    const auto fallback = static_cast<__mmask8>(~fits);
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((fallback >> lane) & 1u) round_to_zq_scalar(x + i + lane, 1, q, out + i + lane);
    }
  }
  if (i < count) round_to_zq_scalar(x + i, count - i, q, out + i);
}

}  // namespace flash::fft::detail

#else  // no AVX-512 F+DQ at compile time: unreachable stubs (dispatch never selects them).

#include <cstdlib>

namespace flash::fft::detail {
void spectral_mac_avx512(const cplx* const*, std::size_t, const cplx* const*, std::size_t,
                         cplx* const*, std::size_t, std::size_t) {
  std::abort();
}
void round_to_zq_avx512(const double*, std::size_t, std::uint64_t, std::uint64_t*) {
  std::abort();
}
}  // namespace flash::fft::detail

#endif
