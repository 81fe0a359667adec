// LUT-based hardware cost estimation for DSE (paper Fig. 10).
//
// RTL synthesis per candidate is far too slow for a 1000-point exploration,
// so FLASH pre-synthesizes butterfly units across the (width, k) grid and
// sums LUT entries per configuration. We do the same: the LUT is filled from
// the calibrated unit-cost models (accel/unit_costs.hpp) once, and a design
// point's energy is the per-stage butterfly count times the LUT entry for
// that stage's width.
#pragma once

#include <vector>

#include "dse/space.hpp"

namespace flash::dse {

class CostModel {
 public:
  /// Builds the (width, k) -> BU cost LUT for the given space bounds.
  CostModel(std::size_t fft_size, const SpaceBounds& bounds);

  /// Energy of one dense M-point transform at this design point (picojoules
  /// at 1 GHz).
  double energy_per_transform_pj(const DesignPoint& p) const;

  /// Energy normalized to the full-precision FP transform (the paper's
  /// Fig. 11(b)(c) x-axis, "normalized power estimation of weight FFT").
  double normalized_power(const DesignPoint& p) const;

  /// LUT lookup: per-butterfly energy (pJ) for one (width, k) cell.
  double bu_energy_pj(int width, int k) const;

 private:
  std::size_t m_;
  SpaceBounds bounds_;
  std::vector<double> lut_;  // (width - min_width) * k_range + (k - min_k)
  double fp_reference_pj_;
};

}  // namespace flash::dse
