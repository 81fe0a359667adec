// Iterative complex FFT with the same decimation-in-time dataflow as the
// paper's Fig. 3: bit-reverse the input, then log2(M) stages of Cooley-Tukey
// butterflies. The explicit stage structure is shared with the fixed-point
// FFT and the sparse-dataflow planner so all three agree on op counts.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace flash::fft {

using cplx = std::complex<double>;

/// A reusable plan for M-point FFTs (M a power of two).
///
/// sign = +1 computes sum a[m] e^{+2*pi*i*m*k/M} (the orientation used by the
/// folded negacyclic transform); sign = -1 the conjugate kernel. inverse()
/// applies the conjugate kernel and scales by 1/M.
///
/// forward()/inverse() are allocation-free and dispatch each stage with at
/// least two butterflies per block to an AVX2 row kernel when available
/// (fft_kernels.hpp). The whole fft library is built with -ffp-contract=off,
/// so the scalar butterflies perform the same IEEE mul/add/sub sequence as
/// the vector lanes and the two paths are bit-identical.
class FftPlan {
 public:
  FftPlan(std::size_t m, int sign);

  std::size_t size() const { return m_; }
  int stages() const { return log_m_; }
  int sign() const { return sign_; }

  /// W_M^(sign * j) for j in [0, M/2), indexed by twiddle power: the table
  /// every stage reads. sparsefft's exact executor reads it too, so its
  /// scheduled butterflies compute this plan's doubles.
  std::span<const cplx> root_powers() const { return root_pow_; }

  /// In-place transform: standard-order input, standard-order output
  /// (bit-reversal applied internally, then DIT stages).
  void forward(std::span<cplx> a) const;
  void forward(std::vector<cplx>& a) const { forward(std::span<cplx>(a)); }

  /// In-place inverse of forward(): conjugate kernel with 1/M scaling.
  void inverse(std::span<cplx> a) const;
  void inverse(std::vector<cplx>& a) const { inverse(std::span<cplx>(a)); }

 private:
  std::size_t m_;
  int log_m_;
  int sign_;
  std::vector<cplx> root_pow_;  // W_M^(sign*j), j = 0..M/2-1
  // Per-stage flattened twiddles: stage s (1-based) owns the 2^(s-1)
  // contiguous entries at offset 2^(s-1)-1 (value root_pow_[j * (m >> s)]).
  // The row kernel streams these unit-stride instead of striding root_pow_.
  std::vector<cplx> stage_tw_;
};

/// O(M^2) reference DFT with kernel e^{sign*2*pi*i*mk/M}; the test oracle.
std::vector<cplx> dft_reference(const std::vector<cplx>& a, int sign);

}  // namespace flash::fft
