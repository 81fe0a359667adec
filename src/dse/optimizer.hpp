// Multi-objective bookkeeping for the approximate-FFT design space: an
// evaluated point carries both objectives — error variance (analytical
// model) and power (LUT model) — and the deliverable of a search
// (dse/bayesopt.hpp) is the scatter of ~1000 evaluated points per layer and
// its Pareto front (Fig. 11(b)(c)).
#pragma once

#include <vector>

#include "dse/space.hpp"

namespace flash::dse {

struct EvaluatedPoint {
  DesignPoint point;
  double error_variance = 0.0;
  double normalized_power = 0.0;
};

/// a dominates b (strictly better on one objective, not worse on the other).
bool dominates(const EvaluatedPoint& a, const EvaluatedPoint& b);

/// Extract the non-dominated subset, sorted by power.
std::vector<EvaluatedPoint> pareto_front(std::vector<EvaluatedPoint> points);

/// Cheapest point meeting the error threshold (the paper's argmin power
/// s.t. err <= T_err); throws std::runtime_error if none qualifies.
EvaluatedPoint best_under_threshold(const std::vector<EvaluatedPoint>& points,
                                    double error_threshold);

}  // namespace flash::dse
