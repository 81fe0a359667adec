// Error estimation for approximate-FFT design points (paper Fig. 10,
// "analytical simulations" for fast error estimation during DSE).
//
// Two estimators:
//   * analytical — closed-form quantization-noise propagation: each stage
//     injects rounding noise Delta^2/12 per real component plus twiddle
//     quantization noise |v|^2 * sigma_w^2, and every later stage doubles the
//     accumulated error power (butterflies are energy-doubling for
//     uncorrelated noise). O(log M) per design point, used inside the
//     search loop.
//   * Monte-Carlo — run the bit-accurate FxpFft on sampled weight
//     polynomials and measure the spectrum error variance against the exact
//     FFT. Used to validate the analytical model and to score final fronts.
#pragma once

#include <random>

#include "dse/space.hpp"

namespace flash::dse {

class ErrorModel {
 public:
  /// m: FFT size. input_power: E[|z|^2] of the (folded, twisted) input
  /// sequence. input_max_abs: bound on |input| coefficients.
  /// coefficient_max_abs: bound on the *pre-fold* real polynomial
  /// coefficients (what the static overflow analyzer needs); defaults to
  /// input_max_abs, which is conservative since the folded |z| bound always
  /// dominates the coefficient bound.
  ErrorModel(std::size_t m, double input_power, double input_max_abs,
             double coefficient_max_abs = 0.0);

  /// Predicted per-element error variance of the output spectrum.
  double predict_variance(const DesignSpace& space, const DesignPoint& p) const;

  double input_power() const { return input_power_; }
  double input_max_abs() const { return input_max_abs_; }
  double coefficient_max_abs() const { return coefficient_max_abs_; }

  /// Input statistics measured from an actual coefficient-encoded weight
  /// polynomial population: nnz values of magnitude <= max_w in a degree-n
  /// poly, folded to n/2 complex points.
  static ErrorModel from_weight_stats(std::size_t n, std::size_t weight_nnz, double max_w);

 private:
  std::size_t m_;
  double input_power_;
  double input_max_abs_;
  double coefficient_max_abs_;
};

/// Monte-Carlo ground truth: mean per-element squared error of the
/// approximate spectrum over `trials` random sparse weight polynomials.
/// n: ring degree (transform size n/2); nnz/max_w describe the weights.
double measured_error_variance(std::size_t n, const fft::FxpFftConfig& config, std::size_t nnz,
                               std::int64_t max_w, std::size_t trials, std::mt19937_64& rng);

/// The paper's T_err for a layer: the tolerable weight-spectrum error
/// variance, derived from how much conv-output perturbation downstream
/// robustness absorbs. A spectrum error of variance V perturbs each conv
/// output by roughly sqrt(V) * activation_rms (the error spectrum multiplies
/// the activation spectrum, both spread over the same transform length), so
///     T_err = (tolerable_output_error / activation_rms)^2.
/// tolerable_output_error: half the discarded requantization LSBs for
/// layer-level absorption (Fig. 5(b)), or < 0.5 for bit-exactness.
double spectrum_error_threshold(double tolerable_output_error, double activation_rms);

}  // namespace flash::dse
