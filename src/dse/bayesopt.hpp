// Bayesian optimization for the approximate-FFT design space — the
// project's one design-space search.
//
// The paper "leverage[s] Bayesian optimization algorithms to solve the
// optimization problem iteratively" (Fig. 10). This is a faithful
// lightweight implementation: a Gaussian-process surrogate with an RBF
// kernel over the normalized design vector, ParEGO-style random Chebyshev
// scalarization of the two objectives (log error variance, normalized
// power), and expected-improvement acquisition maximized over a candidate
// pool of random points and mutations of the incumbent front.
//
// Admission is proof-gated (dse/safety.hpp): only points the interval
// analyzer proves overflow-free (and, with BayesOptions::pipeline, certified
// for correct decryption) are evaluated. The full-precision corner is the
// first point evaluated, so every threshold the corner meets has a feasible
// point.
#pragma once

#include "dse/cost_model.hpp"
#include "dse/optimizer.hpp"
#include "dse/safety.hpp"

namespace flash::dse {

/// Exact GP regression with an RBF kernel (squared exponential), for small
/// training sets (O(n^3) Cholesky).
class GaussianProcess {
 public:
  GaussianProcess(double length_scale, double signal_var, double noise_var)
      : length_scale_(length_scale), signal_var_(signal_var), noise_var_(noise_var) {}

  /// Fit on design vectors (rows of x) and targets y.
  void fit(std::vector<std::vector<double>> x, std::vector<double> y);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };
  Prediction predict(const std::vector<double>& x) const;

  bool fitted() const { return !x_.empty(); }

 private:
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  double length_scale_, signal_var_, noise_var_;
  std::vector<std::vector<double>> x_;
  std::vector<double> alpha_;              // K^-1 (y - mean)
  std::vector<std::vector<double>> chol_;  // lower Cholesky factor of K
  double y_mean_ = 0.0;
};

struct BayesOptions {
  std::size_t evaluations = 200;
  std::size_t initial_random = 24;     // initial design, full-precision corner first
  std::size_t candidate_pool = 160;
  std::size_t max_train_points = 128;  // subsample the GP's training set
  double error_floor = 1e-18;          // clamps log(error) targets
  /// Optional end-to-end admission requirement: only design points whose
  /// pipeline certificate proves correct decryption on this workload are
  /// evaluated. nullopt = overflow obligation only.
  std::optional<PipelineObligation> pipeline;
};

class BayesianExplorer {
 public:
  BayesianExplorer(DesignSpace space, ErrorModel error_model, CostModel cost_model,
                   std::uint64_t seed);

  /// Run the search; returns every truly-evaluated point.
  std::vector<EvaluatedPoint> explore(const BayesOptions& options);

 private:
  std::vector<double> normalize(const DesignPoint& p) const;

  DesignSpace space_;
  ErrorModel error_model_;
  CostModel cost_model_;
  std::mt19937_64 rng_;
};

/// The baseline BayesianExplorer is measured against: uniform random search
/// under the same admission rule and budget — the full-precision corner,
/// then uniform draws the SafetyCache admits (overflow obligation only).
std::vector<EvaluatedPoint> safe_random_search(const DesignSpace& space,
                                               const ErrorModel& error_model,
                                               const CostModel& cost_model,
                                               std::size_t evaluations, std::mt19937_64& rng);

}  // namespace flash::dse
