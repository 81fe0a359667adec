// 8-lane SoA NTT butterfly kernels (AVX-512 F+DQ). Separate TU compiled
// with -mavx512f -mavx512dq; the batch driver only calls in when the active
// level grants it. DQ supplies a native 64-bit mullo; the 128-bit high half
// is the same 32-bit-limb schoolbook as the AVX2 TU. Conditional subtracts
// use compare-to-mask + masked subtract instead of AVX2's blend-by-mask —
// the arithmetic is exact either way, so outputs stay bit-identical to the
// scalar SoA reference. Shifts and 32-bit multiplies take their full-mask
// maskz forms: gcc 12's unmasked forms pass _mm512_undefined and warn
// -Wmaybe-uninitialized about it.
#include "hemath/simd_batch.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace flash::hemath::simd_batch::detail {

namespace {

constexpr __mmask8 kAll = 0xFF;

inline __m512i set1u64(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

inline __m512i srli32(__m512i x) { return _mm512_maskz_srli_epi64(kAll, x, 32); }

inline __m512i mul32(__m512i a, __m512i b) { return _mm512_maskz_mul_epu32(kAll, a, b); }

// Conditional subtract: lanes with x >= m become x - m.
inline __m512i csub(__m512i x, __m512i m) {
  return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, m), x, m);
}

// High 64 bits of the full 128-bit product, schoolbook over 32-bit limbs.
inline __m512i mulhi64(__m512i a, __m512i b) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ahi = srli32(a);
  const __m512i bhi = srli32(b);
  const __m512i ll = mul32(a, b);
  const __m512i lh = mul32(a, bhi);
  const __m512i hl = mul32(ahi, b);
  const __m512i hh = mul32(ahi, bhi);
  const __m512i carry = srli32(_mm512_add_epi64(
      _mm512_add_epi64(srli32(ll), _mm512_and_si512(lh, lo32)), _mm512_and_si512(hl, lo32)));
  return _mm512_add_epi64(_mm512_add_epi64(hh, carry),
                          _mm512_add_epi64(srli32(lh), srli32(hl)));
}

// x*w mod q with Shoup companion ws; lanes land in [0, 2q).
inline __m512i mul_lazy(__m512i x, __m512i w, __m512i ws, __m512i q) {
  return _mm512_sub_epi64(_mm512_mullo_epi64(x, w), _mm512_mullo_epi64(mulhi64(x, ws), q));
}

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }

inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

}  // namespace

void ntt_forward_soa_avx512(u64* buf, std::size_t n, const NttStageTables& tb) {
  constexpr std::size_t g = kAvx512Lanes;
  const __m512i q = set1u64(tb.q);
  const __m512i two_q = _mm512_add_epi64(q, q);
  std::size_t t = n;
  for (std::size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const __m512i w = set1u64(tb.w[m + i]);
      const __m512i ws = set1u64(tb.ws[m + i]);
      u64* up = buf + 2 * i * t * g;
      u64* vp = up + t * g;
      for (std::size_t j = 0; j < t; ++j, up += g, vp += g) {
        const __m512i u = csub(load(up), two_q);
        const __m512i v = mul_lazy(load(vp), w, ws, q);
        store(up, _mm512_add_epi64(u, v));
        store(vp, _mm512_add_epi64(u, _mm512_sub_epi64(two_q, v)));
      }
    }
  }
  for (std::size_t idx = 0; idx < n * g; idx += g) {
    store(buf + idx, csub(csub(load(buf + idx), two_q), q));
  }
}

void ntt_inverse_soa_avx512(u64* buf, std::size_t n, const NttStageTables& tb) {
  constexpr std::size_t g = kAvx512Lanes;
  const __m512i q = set1u64(tb.q);
  const __m512i two_q = _mm512_add_epi64(q, q);
  std::size_t t = 1;
  for (std::size_t m = n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    u64* up = buf;
    for (std::size_t i = 0; i < h; ++i) {
      const __m512i w = set1u64(tb.w[h + i]);
      const __m512i ws = set1u64(tb.ws[h + i]);
      u64* vp = up + t * g;
      for (std::size_t j = 0; j < t; ++j, up += g, vp += g) {
        const __m512i u = csub(load(up), two_q);
        const __m512i v = csub(load(vp), two_q);
        store(up, _mm512_add_epi64(u, v));
        store(vp, mul_lazy(_mm512_add_epi64(u, _mm512_sub_epi64(two_q, v)), w, ws, q));
      }
      up = vp;
    }
    t <<= 1;
  }
  const __m512i ni = set1u64(tb.n_inv);
  const __m512i nis = set1u64(tb.n_inv_shoup);
  for (std::size_t idx = 0; idx < n * g; idx += g) {
    const __m512i x = csub(load(buf + idx), two_q);
    store(buf + idx, csub(mul_lazy(x, ni, nis, q), q));
  }
}

}  // namespace flash::hemath::simd_batch::detail

#else  // No AVX-512 in this compiler/arch: unreachable stubs (dispatch never selects it).

#include <cstdlib>

namespace flash::hemath::simd_batch::detail {
void ntt_forward_soa_avx512(u64*, std::size_t, const NttStageTables&) { std::abort(); }
void ntt_inverse_soa_avx512(u64*, std::size_t, const NttStageTables&) { std::abort(); }
}  // namespace flash::hemath::simd_batch::detail

#endif
