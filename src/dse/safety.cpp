#include "dse/safety.hpp"

#include <cmath>
#include <stdexcept>

namespace flash::dse {

analysis::AnalysisResult analyze_design_point(const DesignSpace& space, const ErrorModel& model,
                                              const DesignPoint& point) {
  const fft::FxpFftConfig cfg = space.to_config(point, model.input_max_abs());
  analysis::AnalyzerOptions opts;
  opts.input_max_abs = model.coefficient_max_abs();
  return analysis::analyze_negacyclic(2 * space.fft_size(), cfg, opts);
}

bool design_point_proven_safe(const DesignSpace& space, const ErrorModel& model,
                              const DesignPoint& point) {
  return analyze_design_point(space, model, point).overflow_free();
}

analysis::PipelineCertificate certify_design_point(const DesignSpace& space,
                                                   const ErrorModel& model,
                                                   const PipelineObligation& obligation,
                                                   const DesignPoint& point) {
  if (obligation.params.n != 2 * space.fft_size()) {
    throw std::invalid_argument(
        "certify_design_point: obligation ring degree does not match the design space "
        "(params.n must be 2 * fft_size)");
  }
  analysis::HConvUnitDesc desc;
  desc.params = obligation.params;
  desc.backend = bfv::PolyMulBackend::kApproxFft;
  desc.approx_config = space.to_config(point, model.input_max_abs());
  desc.in_c = obligation.in_c;
  desc.in_h = obligation.in_h;
  desc.in_w = obligation.in_w;
  desc.weights = tensor::Tensor4(1, obligation.in_c, obligation.kernel_h, obligation.kernel_w);
  const auto w = static_cast<tensor::i64>(std::llround(obligation.max_w));
  for (auto& v : desc.weights.data()) v = w;
  return analysis::certify_hconv_unit(desc);
}

bool SafetyCache::proven_safe(const DesignPoint& point) {
  const auto key = std::make_pair(point.stage_widths, point.twiddle_k);
  const auto it = verdicts_.find(key);
  if (it != verdicts_.end()) return it->second;
  bool safe = design_point_proven_safe(space_, model_, point);
  if (safe && obligation_.has_value()) {
    safe = certify_design_point(space_, model_, *obligation_, point).verdict ==
           analysis::PipelineVerdict::kProvenCorrectDecryption;
  }
  verdicts_.emplace(key, safe);
  return safe;
}

}  // namespace flash::dse
