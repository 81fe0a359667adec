// Internal interface of the double-precision vector kernels: the AVX2
// butterfly row kernel shared between FftPlan (complex_fft.cpp) and
// fft_avx2.cpp, and the spectral point-wise kernels behind fft/spectral.hpp
// (spectral_avx2.cpp, spectral_avx512.cpp). Not installed with the public
// headers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fft/complex_fft.hpp"

namespace flash::fft::detail {

/// One DIT stage over the whole array: for every block of 2*half elements
/// and every butterfly j in [0, half), t = a[block+j+half] * tw[j];
/// a[block+j+half] = a[block+j] - t; a[block+j] += t. Processes two
/// butterflies (four doubles) per vector op, so requires half >= 2 (half is
/// a power of two — no remainder). Compiled with -mavx2; callers must have
/// checked simd::active_simd_level(). Performs the identical IEEE operation
/// sequence as the scalar loop built with -ffp-contract=off, so outputs are
/// bit-identical.
void fft_stage_avx2(cplx* a, const cplx* tw, std::size_t m, std::size_t half);

/// spectral_mac_block after its checks, over elements [begin, end):
/// `components` (1 or 2) ciphertext spectra ct, `outputs` weight spectra w,
/// sums acc[c * outputs + b]. The AVX2 kernel (compiled with -mavx2) needs
/// end - begin to be a multiple of 2, the AVX-512 one (-mavx512f
/// -mavx512dq) a multiple of 4; callers must have checked the level and
/// run the scalar kernel on the remaining elements.
void spectral_mac_scalar(const cplx* const* ct, std::size_t components, const cplx* const* w,
                         std::size_t outputs, cplx* const* acc, std::size_t begin,
                         std::size_t end);
void spectral_mac_avx2(const cplx* const* ct, std::size_t components, const cplx* const* w,
                       std::size_t outputs, cplx* const* acc, std::size_t begin,
                       std::size_t end);
void spectral_mac_avx512(const cplx* const* ct, std::size_t components, const cplx* const* w,
                         std::size_t outputs, cplx* const* acc, std::size_t begin,
                         std::size_t end);

/// round_to_zq over count values. The scalar rule is compiled at the
/// baseline ISA; the AVX-512 kernel calls it for its tail and for every
/// lane with |x| >= 2^62 or a non-finite x.
void round_to_zq_scalar(const double* x, std::size_t count, std::uint64_t q, std::uint64_t* out);
void round_to_zq_avx512(const double* x, std::size_t count, std::uint64_t q, std::uint64_t* out);

}  // namespace flash::fft::detail
