// Negacyclic polynomial multiplication through an N/2-point complex FFT.
//
// This is the "HConv based on FFT" path of the paper's Fig. 4(b), following
// Klemsa's extended Fourier transform: a real polynomial a of degree N over
// X^N+1 is evaluated at the odd 2N-th roots of unity. For real input the
// spectrum has conjugate symmetry, so only N/2 evaluations are independent;
// they are obtained by folding a into N/2 complex values
//     z[s] = (a[s] + i*a[s + N/2]) * zeta^s,   zeta = e^{i*pi/N},
// and running a single N/2-point FFT with the e^{+2*pi*i/M} kernel. Pointwise
// products in this half-spectrum domain realize negacyclic convolution.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fft/butterfly_schedule.hpp"
#include "fft/complex_fft.hpp"
#include "hemath/modular.hpp"

namespace flash::core {
class ScratchArena;
}  // namespace flash::core

namespace flash::fft {

using hemath::i64;
using hemath::u64;

class NegacyclicFft {
 public:
  /// n: ring degree (power of two, >= 4). Internally uses an n/2-point FFT.
  explicit NegacyclicFft(std::size_t n);

  std::size_t degree() const { return n_; }
  std::size_t fft_size() const { return n_ / 2; }
  const FftPlan& plan() const { return plan_; }

  /// Fold + twist only (no FFT): the n/2 complex values z[s] above.
  /// Exposed because the sparse weight transform operates on this sequence.
  std::vector<cplx> fold(const std::vector<double>& a) const;

  /// Allocation-free fold into `z` (size n/2). With `live`, only its live
  /// inputs are written — all a sparse executor reads.
  void fold_into(std::span<const double> a, std::span<cplx> z,
                 const ButterflySchedule* live = nullptr) const;

  /// Inverse of fold(): untwist and unfold back to n real values.
  std::vector<double> unfold(const std::vector<cplx>& z) const;

  /// Half-spectrum forward transform of a real polynomial.
  std::vector<cplx> forward(const std::vector<double>& a) const;

  /// Inverse: half-spectrum back to n real coefficients.
  std::vector<double> inverse(std::vector<cplx> spec) const;

  /// Allocation-free forward: folds directly into `out` (size n/2) and
  /// transforms in place. Needs no scratch at all.
  void forward_into(std::span<const double> a, std::span<cplx> out) const;

  /// Allocation-free inverse: working copy of `spec` comes from `arena`
  /// (the calling thread's arena when null); `out` has size n.
  void inverse_into(std::span<const cplx> spec, std::span<double> out,
                    core::ScratchArena* arena = nullptr) const;

  /// Negacyclic product of two integer polynomials with exact rounding of the
  /// floating result. Coefficient magnitudes must stay within double's exact
  /// integer range for the rounding to be error-free.
  std::vector<i64> multiply(const std::vector<i64>& a, const std::vector<i64>& b) const;

  /// Same product, reduced mod q (signed representatives used internally).
  std::vector<u64> multiply_mod(const std::vector<u64>& a, const std::vector<u64>& b, u64 q) const;

 private:
  std::size_t n_;
  FftPlan plan_;
  std::vector<cplx> twist_;      // zeta^s
  std::vector<cplx> untwist_;    // zeta^{-s}
};

/// Schoolbook negacyclic product over signed 64-bit integers (oracle).
std::vector<i64> negacyclic_multiply_i64(const std::vector<i64>& a, const std::vector<i64>& b);

}  // namespace flash::fft
