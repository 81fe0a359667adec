// Plan-level decryption-correctness certificates.
//
// A strided, padded conv plan decomposes into stride-1 HConv units (one per
// live stride phase x distinct tile patch shape — protocol/conv_geometry.hpp,
// the same enumeration ConvRunner::prepare materializes). Phase shares sum
// locally mod t, which is exact, so the plan decrypts correctly iff every
// unit does: the plan certificate is the per-unit composition of
// analysis::certify_hconv_unit, its verdict the worst unit's.
//
// certificate_json emits a deterministic, diffable record per plan — the
// static-analysis CI job compares it against the committed CERT_baseline.json
// the way perf-smoke diffs BENCH_*.json (tools/flash_analyze --pipeline).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline_certifier.hpp"
#include "protocol/conv_runner.hpp"

namespace flash::protocol {

struct PlanCertificate {
  /// Aggregated verdict: proven iff every unit proved; failure-possible if
  /// any unit has a witness past the ceiling; the binding (worst-margin)
  /// unit's bounds and ledger.
  analysis::PipelineCertificate overall;

  struct Unit {
    std::size_t phase_index = 0, phase_a = 0, phase_b = 0;
    std::size_t patch_h = 0, patch_w = 0;
    std::size_t tile_count = 0;  // tiles of the grid sharing this patch shape
    analysis::PipelineCertificate cert;
  };
  std::vector<Unit> units;

  bool proven() const {
    return overall.verdict == analysis::PipelineVerdict::kProvenCorrectDecryption;
  }
};

/// Certify a conv workload from its spec (no prepared plan needed). Serial;
/// on kApproxFft it transforms the weights itself, one batch per output
/// channel.
PlanCertificate certify_conv(const bfv::BfvParams& params, bfv::PolyMulBackend backend,
                             const std::optional<fft::FxpFftConfig>& approx_config,
                             std::size_t in_c, std::size_t in_h, std::size_t in_w,
                             const tensor::Tensor4& weights, std::size_t stride,
                             std::size_t pad);

/// Certify a prepared plan (same decomposition by construction). On
/// kApproxFft each unit reads the plan's own weight spectra — the ones its
/// requests multiply — so the certificate runs no FXP transform of its own.
/// pool (optional, non-owning) fans each unit's output channels out. The
/// result equals certify_conv's on the plan's conv, field for field.
PlanCertificate certify_plan(const bfv::BfvParams& params, bfv::PolyMulBackend backend,
                             const std::optional<fft::FxpFftConfig>& approx_config,
                             const ConvPlan& plan, core::ThreadPool* pool = nullptr);

/// The plan-level adversarial activation (all coefficients t/2): feeds every
/// phase/tile of the decomposition the unit-level witness pattern.
analysis::PipelineWitness materialize_plan_witness(const bfv::BfvParams& params,
                                                   std::size_t in_c, std::size_t in_h,
                                                   std::size_t in_w);

/// One deterministic JSON object for the certificate (two-decimal bits, unit
/// count, verdict string). `name` identifies the workload in the baseline.
std::string certificate_json(const std::string& name, const PlanCertificate& cert);

}  // namespace flash::protocol
