// The approximate-FFT design space (paper Section IV-C2).
//
// A design point fixes the data bit-width of every FFT stage plus the
// twiddle quantization level k — exactly the knobs of the paper's
// min-power-s.t.-error formulation. The space for a 2048-point FFT with
// widths in [10, 39] and k in [2, 18] has ~30^11 * 17 points, hence search.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "fft/fxp_fft.hpp"

namespace flash::dse {

struct DesignPoint {
  std::vector<int> stage_widths;  // total data width per FFT stage
  int twiddle_k = 5;

  bool operator==(const DesignPoint&) const = default;
};

struct SpaceBounds {
  int min_width = 10;
  int max_width = 39;
  int min_k = 2;
  int max_k = 18;
};

class DesignSpace {
 public:
  DesignSpace(std::size_t fft_size, SpaceBounds bounds);

  std::size_t fft_size() const { return m_; }
  int stages() const { return stages_; }
  const SpaceBounds& bounds() const { return bounds_; }

  DesignPoint random(std::mt19937_64& rng) const;
  /// Perturb one or two coordinates by +/- a few bits.
  DesignPoint mutate(const DesignPoint& p, std::mt19937_64& rng) const;

  /// The most expensive (most accurate) corner: all widths = max, k = max.
  DesignPoint full_precision() const;

  /// Convert to an executable fixed-point FFT configuration given the
  /// magnitude of the input data (determines integer-bit allocation).
  /// input_max_abs is the largest |coefficient| entering the transform.
  fft::FxpFftConfig to_config(const DesignPoint& p, double input_max_abs) const;

  /// Integer bits the data can grow to by the end of stage s (1-based);
  /// stage 0 = input. Growth is one bit per butterfly stage plus sign.
  int int_bits(int stage, double input_max_abs) const;

 private:
  std::size_t m_;
  int stages_;
  SpaceBounds bounds_;
};

}  // namespace flash::dse
