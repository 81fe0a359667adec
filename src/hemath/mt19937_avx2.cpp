// 4-lane MT19937-64 twist and tempering (AVX2). Separate TU compiled with
// -mavx2; Mt19937_64 only calls in when the active level grants it. 156 is
// a multiple of 4, so no chunk straddles the recurrence's middle offset.
#include "hemath/mt19937.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace flash::hemath::detail {

namespace {

inline __m256i set1(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }

inline __m256i load(const u64* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }

inline void store(u64* p, __m256i v) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }

/// mt_next in four lanes.
inline __m256i next4(__m256i xk, __m256i xk1, __m256i xm) {
  const __m256i y = _mm256_or_si256(_mm256_and_si256(xk, set1(kMtUpperMask)),
                                    _mm256_and_si256(xk1, set1(kMtLowerMask)));
  const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, set1(1)));
  return _mm256_xor_si256(_mm256_xor_si256(xm, _mm256_srli_epi64(y, 1)),
                          _mm256_and_si256(odd, set1(kMtMatrixA)));
}

}  // namespace

void mt_twist_avx2(u64* state) {
  constexpr std::size_t n = Mt19937_64::kStateSize;
  constexpr std::size_t m = Mt19937_64::kShift;
  static_assert(m % 4 == 0);
  for (std::size_t k = 0; k < m; k += 4) {
    store(state + k, next4(load(state + k), load(state + k + 1), load(state + k + m)));
  }
  state[n] = state[0];
  for (std::size_t k = m; k < n; k += 4) {
    store(state + k, next4(load(state + k), load(state + k + 1), load(state + k - m)));
  }
}

void mt_temper_avx2(const u64* in, u64* out, std::size_t n) {
  const __m256i d = set1(0x5555555555555555ULL);
  const __m256i b = set1(0x71d67fffeda60000ULL);
  const __m256i c = set1(0xfff7eee000000000ULL);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z = load(in + i);
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), d));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), b));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c));
    store(out + i, _mm256_xor_si256(z, _mm256_srli_epi64(z, 43)));
  }
  for (; i < n; ++i) out[i] = Mt19937_64::temper(in[i]);
}

}  // namespace flash::hemath::detail

#else  // !__AVX2__ — non-x86 build: unreachable stubs (dispatch never selects AVX2).

#include <cstdlib>

namespace flash::hemath::detail {
void mt_twist_avx2(u64*) { std::abort(); }
void mt_temper_avx2(const u64*, u64*, std::size_t) { std::abort(); }
}  // namespace flash::hemath::detail

#endif
