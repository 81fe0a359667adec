// Point-wise kernels of the spectral ct x pt pipeline (paper Fig. 4(b)):
// the multiply-accumulate between the forward and inverse transforms, and
// the exact rounding of an inverse transform back to Z_q.
//
// Both dispatch through hemath::simd::level_at_least to kernels in their
// own -m translation units (spectral_avx2.cpp, spectral_avx512.cpp). The
// fft library builds with -ffp-contract=off, and every level performs the
// same IEEE operations per element, so a level changes speed, never bits.
#pragma once

#include <cstddef>
#include <span>

#include "fft/complex_fft.hpp"
#include "hemath/modular.hpp"

namespace flash::fft {

/// The fused block multiply-accumulate. For every component c of `ct`
/// (one or two spectra: a ciphertext's c0 and c1), every output b of `w`
/// and every k < half:
///     acc[c * w.size() + b][k] += ct[c][k] * w[b][k].
/// One pass over k serves the whole block, so each weight spectrum is read
/// once whatever the number of components, and each ciphertext chunk once
/// for all outputs.
///
/// Every product is libstdc++'s std::complex operator* fast path,
/// (ac - bd, ad + bc), followed by +=, in IEEE double without contraction:
/// wherever c * w is not NaN (every finite product that does not overflow)
/// each level equals `acc += c * w` bit for bit. Scalar is the reference;
/// AVX2 runs two complex values per vector with addsub, AVX-512 four.
/// Throws std::invalid_argument unless ct has one or two spectra and acc
/// has ct.size() * w.size() sums. The spectra must not alias the sums.
void spectral_mac_block(std::span<const cplx* const> ct, std::span<const cplx* const> w,
                        std::span<cplx* const> acc, std::size_t half);

/// out[i] = from_signed(llround(x[i]), q), q < 2^63, without a division.
/// Below 2^62 the truncation and the fraction are exact in double, so
/// whole + (frac >= 1/2) is llround's half-away-from-zero magnitude; the
/// reduction takes its quotient from 1/q and corrects it until the residue
/// lies in [0, q) (once above q = 2^11, a few times for smaller moduli).
/// Larger or non-finite x takes the library call, so inputs outside
/// llround's range map exactly as it maps them. AVX-512 (DQ) runs eight
/// lanes at a time; AVX2 has no u64 <-> double conversion and runs the
/// scalar rule.
void round_to_zq(std::span<const double> x, hemath::u64 q, hemath::u64* out);

}  // namespace flash::fft
