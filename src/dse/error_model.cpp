#include "dse/error_model.hpp"

#include <cmath>
#include <stdexcept>

#include "fft/negacyclic.hpp"

namespace flash::dse {

ErrorModel::ErrorModel(std::size_t m, double input_power, double input_max_abs,
                       double coefficient_max_abs)
    : m_(m), input_power_(input_power), input_max_abs_(input_max_abs),
      coefficient_max_abs_(coefficient_max_abs > 0.0 ? coefficient_max_abs : input_max_abs) {}

ErrorModel ErrorModel::from_weight_stats(std::size_t n, std::size_t weight_nnz, double max_w) {
  // Weight coefficients: nnz values of variance ~ (max_w/2)^2 among n slots.
  // Folding to n/2 complex points pairs two real slots per point, so the
  // per-point expected power is 2 * (nnz/n) * var.
  const double var = (max_w / 2.0) * (max_w / 2.0);
  const double power = 2.0 * static_cast<double>(weight_nnz) / static_cast<double>(n) * var;
  return ErrorModel(n / 2, power, max_w * 1.4143, max_w);  // folded |z| <= sqrt(2)*max_w
}

double ErrorModel::predict_variance(const DesignSpace& space, const DesignPoint& p) const {
  const int stages = space.stages();
  // Twiddle quantization RMS for k CSD digits: residual after k greedy digits
  // is bounded by 2^-(k+1) of the leading digit; empirically ~2^-(1.5k)/sqrt(12)
  // for twiddles in [-1,1]. Use the measured table RMS for fidelity.
  const auto table = fft::quantize_fft_twiddles(m_, +1, p.twiddle_k, -std::max(20, space.bounds().max_width));
  const double sigma_w = fft::twiddle_rms_error(table);
  const double sigma_w2 = sigma_w * sigma_w;

  // Input quantization noise.
  const fft::FxpFftConfig cfg = space.to_config(p, input_max_abs_);
  auto round_var = [](int frac_bits) {
    const double delta = std::exp2(-frac_bits);
    return delta * delta / 12.0;
  };

  double err = 2.0 * round_var(cfg.input_frac_bits);  // re + im components
  double signal = input_power_;
  for (int s = 1; s <= stages; ++s) {
    // Errors from previous stages pass through one more butterfly level:
    // each output is u +/- Wv, so uncorrelated error power doubles.
    err *= 2.0;
    // Twiddle quantization acts on the v operand (signal power `signal`).
    err += signal * sigma_w2;
    // Output rounding of this stage (both butterfly outputs, re + im).
    err += 2.0 * round_var(cfg.stage_frac_bits[static_cast<std::size_t>(s - 1)]);
    // Signal power doubles per stage for uncorrelated inputs.
    signal *= 2.0;
  }
  return err;
}

double spectrum_error_threshold(double tolerable_output_error, double activation_rms) {
  if (tolerable_output_error <= 0.0 || activation_rms <= 0.0) {
    throw std::invalid_argument("spectrum_error_threshold: arguments must be positive");
  }
  const double ratio = tolerable_output_error / activation_rms;
  return ratio * ratio;
}

double measured_error_variance(std::size_t n, const fft::FxpFftConfig& config, std::size_t nnz,
                               std::int64_t max_w, std::size_t trials, std::mt19937_64& rng) {
  const fft::NegacyclicFft exact(n);
  const fft::FxpNegacyclicTransform approx(n, config);
  std::uniform_int_distribution<std::size_t> pos(0, n - 1);
  std::uniform_int_distribution<std::int64_t> val(-max_w, max_w);

  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<double> a(n, 0.0);
    for (std::size_t i = 0; i < nnz; ++i) {
      std::int64_t v = val(rng);
      if (v == 0) v = 1;
      a[pos(rng)] = static_cast<double>(v);
    }
    const auto exact_spec = exact.forward(a);
    const auto approx_spec = approx.forward(a);
    for (std::size_t i = 0; i < exact_spec.size(); ++i) {
      acc += std::norm(approx_spec[i] - exact_spec[i]);
      ++count;
    }
  }
  return count ? acc / static_cast<double>(count) : 0.0;
}

}  // namespace flash::dse
