// 4-lane CDT Gaussian mapping (AVX2). Separate TU compiled with -mavx2;
// CdtGaussianSampler::map_words only calls in when the active level grants
// it. A shifted draw and every table entry passed in lie below 2^63, so the
// signed 64-bit compare orders them as the scalar unsigned one does.
#include "hemath/sampler.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace flash::hemath::detail {

namespace {

inline __m256i set1(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }

/// Lanes of w mapped: len + Σ_k -(table[k] > w >> 1), then the signed lift.
inline __m256i map4(__m256i above, __m256i w, __m256i len, __m256i q) {
  const __m256i one = set1(1);
  const __m256i magnitude = _mm256_add_epi64(len, above);
  const __m256i negative =
      _mm256_and_si256(_mm256_cmpeq_epi64(_mm256_and_si256(w, one), one),
                       _mm256_cmpgt_epi64(magnitude, _mm256_setzero_si256()));
  return _mm256_blendv_epi8(magnitude, _mm256_sub_epi64(q, magnitude), negative);
}

}  // namespace

void cdt_map_avx2(const u64* table, std::size_t len, u64 q, u64* words, std::size_t n) {
  const __m256i lenv = set1(len);
  const __m256i qv = set1(q);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64* p = words + i;
    const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i w1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
    const __m256i u0 = _mm256_srli_epi64(w0, 1);
    const __m256i u1 = _mm256_srli_epi64(w1, 1);
    __m256i above0 = _mm256_setzero_si256();
    __m256i above1 = _mm256_setzero_si256();
    for (std::size_t k = 0; k < len; ++k) {
      const __m256i e = set1(table[k]);
      above0 = _mm256_add_epi64(above0, _mm256_cmpgt_epi64(e, u0));
      above1 = _mm256_add_epi64(above1, _mm256_cmpgt_epi64(e, u1));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), map4(above0, w0, lenv, qv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4), map4(above1, w1, lenv, qv));
  }
  for (; i < n; ++i) words[i] = cdt_map_word(table, len, q, words[i]);
}

}  // namespace flash::hemath::detail

#else  // !__AVX2__ — non-x86 build: unreachable stubs (dispatch never selects AVX2).

#include <cstdlib>

namespace flash::hemath::detail {
void cdt_map_avx2(const u64*, std::size_t, u64, u64*, std::size_t) { std::abort(); }
}  // namespace flash::hemath::detail

#endif
