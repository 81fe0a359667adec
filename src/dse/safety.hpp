// Static proof obligations for DSE candidates.
//
// Before a design point is admitted into the search archive it must be
// *proven* overflow-free by the interval analyzer: the negacyclic weight
// transform of degree 2*fft_size, configured exactly the way the search
// would ship it (to_config with the model's folded input bound), analyzed
// against the model's worst-case coefficient magnitude. Candidates that
// cannot be proven are resampled before the (more expensive) error/power
// evaluation — the static-analysis analogue of the paper rejecting infeasible
// points before simulation.
//
// Optionally the search can also carry an *end-to-end* obligation
// (PipelineObligation): the design point, run as the approximate-FFT
// backend of an HConv unit over a canonical worst-case weight kernel, must
// yield a proven-correct-decryption certificate from the pipeline certifier
// (analysis/pipeline_certifier.hpp). A point can be saturation-free yet
// accumulate enough spectrum error to corrupt decryption at the target BFV
// parameters — that point must never enter the archive.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/fxp_analyzer.hpp"
#include "analysis/pipeline_certifier.hpp"
#include "dse/error_model.hpp"
#include "dse/space.hpp"

namespace flash::dse {

/// End-to-end admission requirement: the BFV parameter set the design point
/// will serve (params.n must equal 2 * fft_size) plus the canonical conv
/// workload it is certified against — a single-output-channel kernel with
/// every weight at the magnitude bound max_w, the l1/l2-maximal member of
/// the weight family the error model describes.
struct PipelineObligation {
  bfv::BfvParams params;
  std::size_t in_c = 1;
  std::size_t in_h = 0, in_w = 0;
  std::size_t kernel_h = 1, kernel_w = 1;
  double max_w = 1.0;
};

/// Run the overflow analyzer on one design point (degree = 2 * fft_size).
analysis::AnalysisResult analyze_design_point(const DesignSpace& space, const ErrorModel& model,
                                              const DesignPoint& point);

/// True iff every stage of the point's transform is provably saturation-free.
bool design_point_proven_safe(const DesignSpace& space, const ErrorModel& model,
                              const DesignPoint& point);

/// Certify the design point end-to-end against the obligation's canonical
/// workload (backend kApproxFft, config = to_config with the model's input
/// bound). Throws std::invalid_argument when params.n != 2 * fft_size.
analysis::PipelineCertificate certify_design_point(const DesignSpace& space,
                                                   const ErrorModel& model,
                                                   const PipelineObligation& obligation,
                                                   const DesignPoint& point);

/// Memoizing wrapper for search loops: mutations revisit points, and
/// the analysis (twiddle-table construction + interval sweep, plus the
/// pipeline certificate when an obligation is attached) is worth caching
/// across the few hundred evaluations of one explore() call.
class SafetyCache {
 public:
  SafetyCache(const DesignSpace& space, const ErrorModel& model,
              std::optional<PipelineObligation> obligation = std::nullopt)
      : space_(space), model_(model), obligation_(std::move(obligation)) {}

  /// Overflow-free AND (when an obligation is attached) certified
  /// proven-correct-decryption.
  bool proven_safe(const DesignPoint& point);

 private:
  const DesignSpace& space_;
  const ErrorModel& model_;
  std::optional<PipelineObligation> obligation_;
  std::map<std::pair<std::vector<int>, int>, bool> verdicts_;
};

}  // namespace flash::dse
