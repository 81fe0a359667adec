// Vectorized pointwise modular multiplication.
//
// The spectral-domain inner loop of every NTT-backed PolyMul is
// c[i] = a[i]*b[i] mod q (optionally accumulated). The scalar mul_mod takes
// a 128-bit remainder per element — a library soft-division on x86-64. The
// AVX2 path computes the same exact residue with a four-lane Barrett
// reduction (mu = floor(2^128/q) precomputed per call), so it is
// bit-identical to the scalar path by construction: both produce the unique
// representative in [0, q). Dispatch follows hemath/simd.hpp.
#pragma once

#include <cstddef>

#include "hemath/modular.hpp"

namespace flash::hemath {

/// c[i] = a[i]*b[i] mod q for i in [0, n). Inputs must be < q; q < 2^62.
/// a, b, c may alias elementwise (c == a is fine).
void pointwise_mulmod(const u64* a, const u64* b, u64* c, std::size_t n, u64 q);

/// acc[i] = (acc[i] + a[i]*b[i]) mod q for i in [0, n).
void pointwise_mulmod_accumulate(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q);

namespace detail {
/// AVX2 kernels (defined in pointwise_avx2.cpp, compiled with -mavx2).
/// Callers must check simd::active_simd_level() first.
void pointwise_mulmod_avx2(const u64* a, const u64* b, u64* c, std::size_t n, u64 q);
void pointwise_mulmod_accumulate_avx2(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q);
}  // namespace detail

}  // namespace flash::hemath
