#include "protocol/plan_certificate.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "protocol/conv_geometry.hpp"

namespace flash::protocol {

namespace {

/// The plan phase with stream-block index `index` (ConvRunner::prepare
/// builds one per live phase of the same enumeration).
const ConvPlan::Phase& plan_phase(const ConvPlan& plan, std::size_t index) {
  for (const ConvPlan::Phase& phase : plan.phases) {
    if (phase.index == index) return phase;
  }
  throw std::invalid_argument("certify_plan: the plan has no phase for a unit of its conv");
}

/// Certify every unit of a conv and aggregate. With a plan, kApproxFft units
/// read the plan's prepared spectra; pool fans each unit's output channels
/// out.
PlanCertificate certify_units(const bfv::BfvParams& params, bfv::PolyMulBackend backend,
                              const std::optional<fft::FxpFftConfig>& approx_config,
                              std::size_t in_c, std::size_t in_h, std::size_t in_w,
                              const tensor::Tensor4& weights, std::size_t stride, std::size_t pad,
                              const ConvPlan* plan, core::ThreadPool* pool) {
  PlanCertificate out;
  const std::vector<ConvUnit> units =
      enumerate_conv_units(params.n, in_c, in_h, in_w, weights, stride, pad);

  bool first = true;
  bool all_proven = true;
  bool any_failure = false;
  for (const ConvUnit& u : units) {
    analysis::HConvUnitDesc desc;
    desc.params = params;
    desc.backend = backend;
    desc.approx_config = approx_config;
    desc.in_c = in_c;
    desc.in_h = u.patch_h;
    desc.in_w = u.patch_w;
    desc.weights = u.weights;
    if (plan != nullptr && backend == bfv::PolyMulBackend::kApproxFft) {
      desc.spectra = &plan_phase(*plan, u.phase.index).tiles.at({u.patch_h, u.patch_w})->spec;
    }

    PlanCertificate::Unit unit;
    unit.phase_index = u.phase.index;
    unit.phase_a = u.phase.a;
    unit.phase_b = u.phase.b;
    unit.patch_h = u.patch_h;
    unit.patch_w = u.patch_w;
    unit.tile_count = u.tile_count;
    unit.cert = analysis::certify_hconv_unit(desc, pool);

    using analysis::PipelineVerdict;
    all_proven = all_proven && unit.cert.verdict == PipelineVerdict::kProvenCorrectDecryption;
    any_failure = any_failure || unit.cert.verdict == PipelineVerdict::kFailurePossibleWithWitness;

    if (first || unit.cert.certified_noise_bits > out.overall.certified_noise_bits) {
      out.overall = unit.cert;
      first = false;
    }
    out.overall.witness_noise_bits =
        std::max(out.overall.witness_noise_bits, unit.cert.witness_noise_bits);
    out.overall.worst_case_noise_bits =
        std::max(out.overall.worst_case_noise_bits, unit.cert.worst_case_noise_bits);
    out.overall.transform_overflow_free =
        out.overall.transform_overflow_free && unit.cert.transform_overflow_free;
    out.units.push_back(std::move(unit));
  }

  using analysis::PipelineVerdict;
  if (units.empty()) {
    out.overall.verdict = PipelineVerdict::kInconclusive;
    out.overall.detail = "empty unit decomposition";
  } else if (all_proven) {
    out.overall.verdict = PipelineVerdict::kProvenCorrectDecryption;
  } else if (any_failure) {
    out.overall.verdict = PipelineVerdict::kFailurePossibleWithWitness;
  } else {
    out.overall.verdict = PipelineVerdict::kInconclusive;
  }
  out.overall.margin_bits = out.overall.ceiling_bits - out.overall.certified_noise_bits;
  return out;
}

}  // namespace

PlanCertificate certify_conv(const bfv::BfvParams& params, bfv::PolyMulBackend backend,
                             const std::optional<fft::FxpFftConfig>& approx_config,
                             std::size_t in_c, std::size_t in_h, std::size_t in_w,
                             const tensor::Tensor4& weights, std::size_t stride,
                             std::size_t pad) {
  return certify_units(params, backend, approx_config, in_c, in_h, in_w, weights, stride, pad,
                       nullptr, nullptr);
}

PlanCertificate certify_plan(const bfv::BfvParams& params, bfv::PolyMulBackend backend,
                             const std::optional<fft::FxpFftConfig>& approx_config,
                             const ConvPlan& plan, core::ThreadPool* pool) {
  return certify_units(params, backend, approx_config, plan.in_c, plan.in_h, plan.in_w,
                       plan.weights, plan.stride, plan.pad, &plan, pool);
}

analysis::PipelineWitness materialize_plan_witness(const bfv::BfvParams& params,
                                                   std::size_t in_c, std::size_t in_h,
                                                   std::size_t in_w) {
  analysis::PipelineWitness w;
  w.activation = tensor::Tensor3(in_c, in_h, in_w);
  const tensor::i64 half = static_cast<tensor::i64>(params.t / 2);
  for (auto& v : w.activation.data()) v = half;
  w.description =
      "all-coefficients t/2 activation: every share slot of every phase/tile wraps "
      "with probability 1/2";
  return w;
}

std::string certificate_json(const std::string& name, const PlanCertificate& cert) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    {\"name\": \"%s\", \"verdict\": \"%s\", \"ceiling_bits\": %.2f, "
      "\"certified_bits\": %.2f, \"margin_bits\": %.2f, \"witness_bits\": %.2f, "
      "\"worst_case_bits\": %.2f, \"fail_prob_log2\": %.1f, "
      "\"transform_overflow_free\": %s, \"units\": %zu}",
      name.c_str(), analysis::to_string(cert.overall.verdict), cert.overall.ceiling_bits,
      cert.overall.certified_noise_bits, cert.overall.margin_bits,
      cert.overall.witness_noise_bits, cert.overall.worst_case_noise_bits,
      cert.overall.fail_prob_log2, cert.overall.transform_overflow_free ? "true" : "false",
      cert.units.size());
  return buf;
}

}  // namespace flash::protocol
