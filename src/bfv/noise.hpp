// Noise analysis helpers (paper §III-A, kernel-level robustness).
//
// The kernel-level error-resilience argument is: decryption succeeds as long
// as total noise (encryption noise + approximate-computation noise) stays
// below q/(2t). These helpers predict and measure the margin.
#pragma once

#include "bfv/encrypt.hpp"

namespace flash::bfv {

/// Predicted fresh-encryption noise bound (heuristic, high-probability):
/// |e| + |a*s| error terms ~ sigma * sqrt(N) scaled appropriately.
double predicted_fresh_noise_bits(const BfvParams& params);

/// Predicted noise growth of ct x pt where the plaintext has `weight_nnz`
/// nonzero coefficients of magnitude <= max_abs: multiplicative growth by the
/// l1 norm of the plaintext.
double predicted_plain_mult_noise_bits(const BfvParams& params, double input_noise_bits,
                                       std::size_t weight_nnz, double max_abs);

/// Headroom available for approximate-FFT error: how large an additive error
/// on ciphertext coefficients can be before decryption flips a message bit.
/// Returns the log2 of the tolerable per-coefficient error magnitude.
double approx_error_headroom_bits(const BfvParams& params, double current_noise_bits);

/// Static noise estimator: predicts the invariant-noise magnitude (in bits)
/// through a sequence of homomorphic operations, SEAL-style. Predictions are
/// high-probability upper estimates — tests check they bracket the measured
/// budgets. All values are log2 of the noise magnitude.
class NoiseEstimator {
 public:
  explicit NoiseEstimator(const BfvParams& params) : params_(params) {}

  /// Fresh public-key encryption: e1 + u*e + e2*s terms.
  double fresh() const;
  /// ct + ct (or ct +/- plain: rounding-only, no growth).
  double after_add(double a_bits, double b_bits) const;
  /// ct x pt with a plaintext of `nnz` nonzero coefficients of |.| <= max_abs.
  double after_multiply_plain(double noise_bits, std::size_t nnz, double max_abs) const;

  /// Remaining budget for a noise level (log2(q/2t) - noise).
  double budget(double noise_bits) const { return params_.noise_ceiling_bits() - noise_bits; }

 private:
  const BfvParams& params_;
};

}  // namespace flash::bfv
