#include "dse/bayesopt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dse/safety.hpp"

namespace flash::dse {

double GaussianProcess::kernel(const std::vector<double>& a, const std::vector<double>& b) const {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return signal_var_ * std::exp(-d2 / (2.0 * length_scale_ * length_scale_));
}

void GaussianProcess::fit(std::vector<std::vector<double>> x, std::vector<double> y) {
  if (x.size() != y.size() || x.empty()) throw std::invalid_argument("GaussianProcess::fit: bad data");
  x_ = std::move(x);
  const std::size_t n = x_.size();
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);

  // K + noise*I, lower Cholesky.
  chol_.assign(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> k(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) k[i][j] = k[j][i] = kernel(x_[i], x_[j]);
    k[i][i] += noise_var_ + 1e-10;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = k[i][j];
      for (std::size_t l = 0; l < j; ++l) sum -= chol_[i][l] * chol_[j][l];
      if (i == j) {
        chol_[i][i] = std::sqrt(std::max(sum, 1e-12));
      } else {
        chol_[i][j] = sum / chol_[j][j];
      }
    }
  }
  // alpha = K^-1 (y - mean) via forward/back substitution.
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = y[i] - y_mean_;
    for (std::size_t l = 0; l < i; ++l) sum -= chol_[i][l] * z[l];
    z[i] = sum / chol_[i][i];
  }
  alpha_.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t l = ii + 1; l < n; ++l) sum -= chol_[l][ii] * alpha_[l];
    alpha_[ii] = sum / chol_[ii][ii];
  }
}

GaussianProcess::Prediction GaussianProcess::predict(const std::vector<double>& x) const {
  if (!fitted()) throw std::logic_error("GaussianProcess::predict before fit");
  const std::size_t n = x_.size();
  std::vector<double> kx(n);
  for (std::size_t i = 0; i < n; ++i) kx[i] = kernel(x, x_[i]);
  Prediction out;
  out.mean = y_mean_;
  for (std::size_t i = 0; i < n; ++i) out.mean += kx[i] * alpha_[i];
  // v = L^-1 kx; var = k(x,x) - v.v
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = kx[i];
    for (std::size_t l = 0; l < i; ++l) sum -= chol_[i][l] * v[l];
    v[i] = sum / chol_[i][i];
  }
  double vv = 0.0;
  for (double e : v) vv += e * e;
  out.variance = std::max(kernel(x, x) - vv, 1e-12);
  return out;
}

namespace {

EvaluatedPoint evaluate_point(const DesignSpace& space, const ErrorModel& error_model,
                              const CostModel& cost_model, const DesignPoint& p) {
  return {p, error_model.predict_variance(space, p), cost_model.normalized_power(p)};
}

// Only points the interval analyzer proves overflow-free (and, with a
// pipeline obligation, certified for correct decryption) are evaluated;
// unprovable draws are resampled so the evaluation budget stays exact.
void require_provable_corner(const DesignSpace& space, SafetyCache& safety) {
  if (!safety.proven_safe(space.full_precision())) {
    throw std::runtime_error(
        "dse: even the full-precision corner cannot be proven overflow-free for this input "
        "bound");
  }
}

/// A uniform draw the cache admits; the corner after kMaxDraws misses.
DesignPoint safe_random(const DesignSpace& space, SafetyCache& safety, std::mt19937_64& rng) {
  constexpr int kMaxDraws = 64;
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    DesignPoint p = space.random(rng);
    if (safety.proven_safe(p)) return p;
  }
  return space.full_precision();
}

}  // namespace

BayesianExplorer::BayesianExplorer(DesignSpace space, ErrorModel error_model, CostModel cost_model,
                                   std::uint64_t seed)
    : space_(std::move(space)), error_model_(std::move(error_model)),
      cost_model_(std::move(cost_model)), rng_(seed) {}

std::vector<double> BayesianExplorer::normalize(const DesignPoint& p) const {
  const auto& b = space_.bounds();
  std::vector<double> x;
  x.reserve(p.stage_widths.size() + 1);
  for (int w : p.stage_widths) {
    x.push_back(static_cast<double>(w - b.min_width) / static_cast<double>(b.max_width - b.min_width));
  }
  x.push_back(static_cast<double>(p.twiddle_k - b.min_k) / static_cast<double>(b.max_k - b.min_k));
  return x;
}

std::vector<EvaluatedPoint> BayesianExplorer::explore(const BayesOptions& options) {
  std::vector<EvaluatedPoint> all;
  all.reserve(options.evaluations);

  auto evaluate = [&](const DesignPoint& p) {
    all.push_back(evaluate_point(space_, error_model_, cost_model_, p));
  };
  SafetyCache safety(space_, error_model_, options.pipeline);
  require_provable_corner(space_, safety);

  // Initial design: the full-precision corner first — so every threshold it
  // meets has a feasible point — then random admissible draws.
  if (options.evaluations > 0) evaluate(space_.full_precision());
  for (std::size_t i = 1; i < options.initial_random && all.size() < options.evaluations; ++i) {
    evaluate(safe_random(space_, safety, rng_));
  }

  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (all.size() < options.evaluations) {
    // ParEGO: random Chebyshev scalarization of (log error, power), both
    // normalized to the observed ranges; smaller is better.
    double lo_e = 1e300, hi_e = -1e300, lo_p = 1e300, hi_p = -1e300;
    for (const auto& e : all) {
      const double le = std::log10(std::max(e.error_variance, options.error_floor));
      lo_e = std::min(lo_e, le);
      hi_e = std::max(hi_e, le);
      lo_p = std::min(lo_p, e.normalized_power);
      hi_p = std::max(hi_p, e.normalized_power);
    }
    const double lambda = unit(rng_);
    auto scalarize = [&](double err_var, double power) {
      const double le = (std::log10(std::max(err_var, options.error_floor)) - lo_e) /
                        std::max(hi_e - lo_e, 1e-9);
      const double pw = (power - lo_p) / std::max(hi_p - lo_p, 1e-9);
      return std::max(lambda * le, (1.0 - lambda) * pw) + 0.05 * (lambda * le + (1.0 - lambda) * pw);
    };

    // GP training set: most recent evaluations (the surrogate is local).
    const std::size_t train = std::min(options.max_train_points, all.size());
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    xs.reserve(train);
    double best_y = 1e300;
    for (std::size_t i = all.size() - train; i < all.size(); ++i) {
      xs.push_back(normalize(all[i].point));
      ys.push_back(scalarize(all[i].error_variance, all[i].normalized_power));
      best_y = std::min(best_y, ys.back());
    }
    GaussianProcess gp(0.35, 0.5, 1e-4);
    gp.fit(std::move(xs), std::move(ys));

    // Candidate pool: random + mutations of the current non-dominated set.
    // Every candidate is scored first; admission is then checked in
    // descending EI order (earliest first on ties), so the analyzer runs
    // only until the first admissible candidate.
    const auto front = pareto_front(all);
    std::vector<DesignPoint> pool;
    std::vector<std::pair<double, std::size_t>> ranked;  // (EI, pool index)
    pool.reserve(options.candidate_pool);
    for (std::size_t c = 0; c < options.candidate_pool; ++c) {
      if (!front.empty() && (c & 1)) {
        pool.push_back(space_.mutate(front[rng_() % front.size()].point, rng_));
      } else {
        pool.push_back(space_.random(rng_));
      }
      const auto pred = gp.predict(normalize(pool.back()));
      const double sigma = std::sqrt(pred.variance);
      // Expected improvement over the incumbent scalarized best.
      const double z = (best_y - pred.mean) / sigma;
      const double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979);
      const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
      const double ei = (best_y - pred.mean) * cdf + sigma * phi;
      if (ei > -1.0) ranked.emplace_back(ei, c);  // also drops NaN
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    const DesignPoint* pick = nullptr;
    for (const auto& [ei, c] : ranked) {
      if (safety.proven_safe(pool[c])) {
        pick = &pool[c];
        break;
      }
    }
    // A random admissible draw only when no candidate is admissible.
    evaluate(pick != nullptr ? *pick : safe_random(space_, safety, rng_));
  }
  return all;
}

std::vector<EvaluatedPoint> safe_random_search(const DesignSpace& space,
                                               const ErrorModel& error_model,
                                               const CostModel& cost_model,
                                               std::size_t evaluations, std::mt19937_64& rng) {
  SafetyCache safety(space, error_model);
  require_provable_corner(space, safety);
  std::vector<EvaluatedPoint> all;
  all.reserve(evaluations);
  for (std::size_t i = 0; i < evaluations; ++i) {
    const DesignPoint p = i == 0 ? space.full_precision() : safe_random(space, safety, rng);
    all.push_back(evaluate_point(space, error_model, cost_model, p));
  }
  return all;
}

}  // namespace flash::dse
