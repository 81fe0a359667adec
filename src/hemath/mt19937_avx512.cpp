// 8-lane MT19937-64 twist and tempering (AVX-512 F). Separate TU compiled
// with -mavx512f; Mt19937_64 only calls in when the active level grants it.
// Shifts and the lane shift take their full-mask maskz forms: gcc 12's
// unmasked forms pass _mm512_undefined and warn -Wmaybe-uninitialized.
#include "hemath/mt19937.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace flash::hemath::detail {

namespace {

constexpr __mmask8 kAll = 0xFF;

inline __m512i set1(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }

inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// mt_next in eight lanes: y's low bit selects the matrix word.
inline __m512i next8(__m512i xk, __m512i xk1, __m512i xm) {
  const __m512i y = _mm512_or_si512(_mm512_and_si512(xk, set1(kMtUpperMask)),
                                    _mm512_and_si512(xk1, set1(kMtLowerMask)));
  const __m512i a = _mm512_maskz_mov_epi64(_mm512_test_epi64_mask(y, set1(1)), set1(kMtMatrixA));
  return _mm512_xor_si512(_mm512_xor_si512(xm, _mm512_maskz_srli_epi64(kAll, y, 1)), a);
}

}  // namespace

void mt_twist_avx512(u64* state) {
  constexpr std::size_t n = Mt19937_64::kStateSize;
  constexpr std::size_t m = Mt19937_64::kShift;
  constexpr std::size_t straddle = m / 8 * 8;  // 152: lanes k = 152..159
  static_assert(m % 8 == 4);
  std::size_t k = 0;
  for (; k < straddle; k += 8) {
    store(state + k, next8(load(state + k), load(state + k + 1), load(state + k + m)));
  }
  // Lanes 0..3 read the old x[308..311], lanes 4..7 the new x[0..3]: the
  // upper half of x[304..311] followed by the lower half of x[0..7].
  const __m512i xm = _mm512_maskz_alignr_epi64(kAll, load(state), load(state + n - 8), 4);
  store(state + k, next8(load(state + k), load(state + k + 1), xm));
  state[n] = state[0];
  for (k += 8; k < n; k += 8) {
    store(state + k, next8(load(state + k), load(state + k + 1), load(state + k - m)));
  }
}

void mt_temper_avx512(const u64* in, u64* out, std::size_t n) {
  const __m512i d = set1(0x5555555555555555ULL);
  const __m512i b = set1(0x71d67fffeda60000ULL);
  const __m512i c = set1(0xfff7eee000000000ULL);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i z = load(in + i);
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_srli_epi64(kAll, z, 29), d));
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_slli_epi64(kAll, z, 17), b));
    z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_slli_epi64(kAll, z, 37), c));
    store(out + i, _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll, z, 43)));
  }
  for (; i < n; ++i) out[i] = Mt19937_64::temper(in[i]);
}

}  // namespace flash::hemath::detail

#else  // No AVX-512 in this compiler/arch: unreachable stubs (dispatch never selects it).

#include <cstdlib>

namespace flash::hemath::detail {
void mt_twist_avx512(u64*) { std::abort(); }
void mt_temper_avx512(const u64*, u64*, std::size_t) { std::abort(); }
}  // namespace flash::hemath::detail

#endif
