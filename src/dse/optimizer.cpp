#include "dse/optimizer.hpp"

#include <algorithm>
#include <stdexcept>

namespace flash::dse {

bool dominates(const EvaluatedPoint& a, const EvaluatedPoint& b) {
  const bool no_worse = a.error_variance <= b.error_variance && a.normalized_power <= b.normalized_power;
  const bool better = a.error_variance < b.error_variance || a.normalized_power < b.normalized_power;
  return no_worse && better;
}

std::vector<EvaluatedPoint> pareto_front(std::vector<EvaluatedPoint> points) {
  std::vector<EvaluatedPoint> front;
  for (const auto& p : points) {
    bool dominated = false;
    for (const auto& q : points) {
      if (dominates(q, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(p);
  }
  std::sort(front.begin(), front.end(),
            [](const EvaluatedPoint& a, const EvaluatedPoint& b) {
              return a.normalized_power < b.normalized_power;
            });
  // Deduplicate identical objective pairs.
  front.erase(std::unique(front.begin(), front.end(),
                          [](const EvaluatedPoint& a, const EvaluatedPoint& b) {
                            return a.normalized_power == b.normalized_power &&
                                   a.error_variance == b.error_variance;
                          }),
              front.end());
  return front;
}

EvaluatedPoint best_under_threshold(const std::vector<EvaluatedPoint>& points,
                                    double error_threshold) {
  const EvaluatedPoint* best = nullptr;
  for (const auto& p : points) {
    if (p.error_variance <= error_threshold &&
        (best == nullptr || p.normalized_power < best->normalized_power)) {
      best = &p;
    }
  }
  if (best == nullptr) throw std::runtime_error("best_under_threshold: no feasible point");
  return *best;
}

}  // namespace flash::dse
