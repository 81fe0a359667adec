// 8-lane CDT Gaussian mapping (AVX-512 F). Separate TU compiled with
// -mavx512f; CdtGaussianSampler::map_words only calls in when the active
// level grants it. Each table entry is one unsigned compare mask per
// vector, and the count adds under that mask. The shift takes its
// full-mask maskz form: gcc 12's unmasked form passes _mm512_undefined and
// warns -Wmaybe-uninitialized about it.
#include "hemath/sampler.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace flash::hemath::detail {

namespace {

constexpr __mmask8 kAll = 0xFF;

inline __m512i set1(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

/// Lanes with the low draw bit set and a nonzero count become q - count.
inline __m512i lift8(__m512i magnitude, __m512i w, __m512i q) {
  const __m512i one = set1(1);
  const __mmask8 negative =
      _mm512_test_epi64_mask(w, one) & _mm512_test_epi64_mask(magnitude, magnitude);
  return _mm512_mask_sub_epi64(magnitude, negative, q, magnitude);
}

}  // namespace

void cdt_map_avx512(const u64* table, std::size_t len, u64 q, u64* words, std::size_t n) {
  const __m512i one = set1(1);
  const __m512i qv = set1(q);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    u64* p = words + i;
    const __m512i w0 = _mm512_loadu_si512(p);
    const __m512i w1 = _mm512_loadu_si512(p + 8);
    const __m512i u0 = _mm512_maskz_srli_epi64(kAll, w0, 1);
    const __m512i u1 = _mm512_maskz_srli_epi64(kAll, w1, 1);
    __m512i magnitude0 = _mm512_setzero_si512();
    __m512i magnitude1 = _mm512_setzero_si512();
    for (std::size_t k = 0; k < len; ++k) {
      const __m512i e = set1(table[k]);
      magnitude0 = _mm512_mask_add_epi64(magnitude0, _mm512_cmple_epu64_mask(e, u0),
                                         magnitude0, one);
      magnitude1 = _mm512_mask_add_epi64(magnitude1, _mm512_cmple_epu64_mask(e, u1),
                                         magnitude1, one);
    }
    _mm512_storeu_si512(p, lift8(magnitude0, w0, qv));
    _mm512_storeu_si512(p + 8, lift8(magnitude1, w1, qv));
  }
  for (; i < n; ++i) words[i] = cdt_map_word(table, len, q, words[i]);
}

}  // namespace flash::hemath::detail

#endif  // __AVX512F__
