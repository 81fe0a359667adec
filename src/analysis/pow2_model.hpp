// Wrap-freedom analysis for the Z_{2^k} (kPow2) polymul backend.
//
// The pow2 backend is exact-or-broken: unlike the approximate FFT, whose
// error is a continuous budget certified by the interval analyzer, Z_{2^k}
// arithmetic either computes the negacyclic product exactly (every signed
// intermediate fits in k bits, so two's-complement wraparound is invisible)
// or silently aliases mod 2^k. The proof obligation is therefore a single
// worst-case magnitude bound on the signed result coefficients:
//
//   |c_i| = |sum_{j+l = i mod- n} (+/-) a_j * w_l|  <=  nnz(w) * max_w * max_x
//
// (an l1 bound on the negacyclic convolution: each of the nnz nonzero
// weights contributes at most max_w * max_x to any one output coefficient,
// and the negacyclic sign flip does not change magnitudes). With a headroom
// of required_bits = ceil(log2(bound)) + 1 (sign bit), the product is
// wrap-free iff required_bits <= k.
//
// It is the kPow2 analogue of the interval analyzer's no-overflow proof
// for approximate-FFT points (dse::SafetyCache). The design-space search
// covers the approximate FFT only, and the pipeline certifier has no kPow2
// noise model, so today only the tests discharge this obligation.
#pragma once

#include <cstddef>
#include <cstdint>

namespace flash::analysis {

/// Inputs of the wrap proof: operand geometry and magnitude bounds. max_x is
/// the bound on the *signed representatives* of the ciphertext-side operand
/// (q/2 for uniform residues mod q = 2^k; tighter for share-reduced inputs).
struct Pow2Obligation {
  std::size_t n = 0;           // ring degree
  std::size_t weight_nnz = 0;  // nonzero weight coefficients
  std::uint64_t max_w = 0;     // bound on |signed weight|
  std::uint64_t max_x = 0;     // bound on |signed ct-side coefficient|
};

/// Result of the wrap proof for a candidate ring width k.
struct Pow2WrapAnalysis {
  int k = 0;                  // candidate ring width (q = 2^k)
  int required_bits = 0;      // signed bits the worst-case product needs
  bool wrap_free = false;     // required_bits <= k: result provably exact
  int headroom_bits = 0;      // k - required_bits (negative when unsafe)
};

/// Discharge (or refute) the wrap-freedom obligation at width k.
/// Sound and exact for the l1 bound above: uses 128-bit intermediate
/// arithmetic, so no double rounding can flip a verdict near the boundary.
Pow2WrapAnalysis analyze_pow2_polymul(const Pow2Obligation& ob, int k);

/// Smallest k in [2, 62] that is wrap-free for this obligation, or 0 when
/// even k = 62 wraps (the point is inadmissible at any supported width).
int min_wrap_free_k(const Pow2Obligation& ob);

}  // namespace flash::analysis
