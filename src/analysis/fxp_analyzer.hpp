// Static overflow/bit-width verification of approximate-FFT design points.
//
// The analyzer rebuilds the exact dataflow graph the bit-accurate FxpFft
// simulator executes — the same quantized twiddle tables, the same stage /
// twiddle indexing, the same requantize points — and pushes a worst-case
// ComplexInterval through every wire. The output is a per-stage verdict:
//
//   * kProvenSafe         — no input within the declared bound can reach the
//                           saturator limit at this stage's output register;
//   * kSaturationPossible — the worst-case mantissa bound exceeds the limit
//                           (the bound is the concrete witness: an input
//                           family achieving a constant fraction of it
//                           exists, so the stage cannot be certified);
//   * kWidthWasteful      — proven safe with more than `wasteful_guard_bits`
//                           whole bits of slack between the bound and the
//                           limit: the stage pays for width it cannot use.
//
// "Proven" is sound with respect to FxpFft: every interval operation rounds
// up (see interval.hpp), so an empirical mantissa above the bound is a bug
// in one of the two implementations — flash_fuzz cross-checks exactly that.
//
// The `clamp_adder_pre_requantize` option analyzes the *broken* datapath
// PR 2's fuzzer caught (butterfly adder saturating at the input fraction
// scale, before the requantizer's right shift): the regression suite pins
// that the analyzer flags it statically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fft/fxp_fft.hpp"
#include "sparsefft/planner.hpp"

namespace flash::analysis {

enum class StageVerdict {
  kProvenSafe,
  kSaturationPossible,
  kWidthWasteful,
};

/// Verdict for one pipeline cut. Stage 0 is the input quantizer; stages
/// 1..log2(M) are the butterfly stages' output registers.
struct StageReport {
  int stage = 0;
  int frac_bits = 0;          // fraction bits of this cut's mantissas
  StageVerdict verdict = StageVerdict::kProvenSafe;
  double mantissa_bound = 0;  // proven bound on |mantissa| at this cut
  double adder_bound = 0;     // pre-requantize bound at the input scale (stage >= 1)
  double sat_limit = 0;       // 2^(width-1) - 1
  int guard_bits = 0;         // floor(log2(limit / bound)); < 0 iff saturation-possible
  double value_bound = 0;     // worst-case |component| in the value domain
  double error_bound = 0;     // accumulated quantization error vs the exact FFT
};

struct AnalysisResult {
  std::size_t m = 0;
  fft::FxpFftConfig config;
  std::vector<StageReport> stages;  // log2(M) + 1 entries, stage 0 first

  double output_error_bound = 0;    // per-element |error| bound of the final spectrum

  bool overflow_free() const;
  /// First stage that cannot be proven safe, or nullptr.
  const StageReport* first_saturation_possible() const;
  int wasteful_stages() const;
};

struct AnalyzerOptions {
  /// Bound on the magnitude of each real input component: |Re z| and |Im z|
  /// of every FFT input element for analyze_fxp_fft, |a_i| of every
  /// polynomial coefficient for analyze_negacyclic.
  double input_max_abs = 1.0;
  /// Slack beyond which a proven-safe stage is reported width-wasteful.
  int wasteful_guard_bits = 2;
  /// Analyze the PR-2 bug variant: the butterfly adder saturates at the
  /// *input* fraction scale, before the stage requantizer.
  bool clamp_adder_pre_requantize = false;
};

/// Dense M-point FFT (the FxpFft::forward dataflow).
AnalysisResult analyze_fxp_fft(std::size_t m, const fft::FxpFftConfig& config,
                               const AnalyzerOptions& options);

/// Sparse-scheduled M-point FFT: inactive wires carry exact zeros, kCopy /
/// kMulOnly butterflies propagate accordingly. `plan` must be built for the
/// same M.
AnalysisResult analyze_fxp_fft(std::size_t m, const fft::FxpFftConfig& config,
                               const sparsefft::SparseFftPlan& plan,
                               const AnalyzerOptions& options);

/// Negacyclic weight transform of degree n (the FxpNegacyclicTransform
/// dataflow): fold to n/2 points, multiply by the CSD-quantized twist, then
/// the dense FFT. input_max_abs bounds the real polynomial coefficients.
AnalysisResult analyze_negacyclic(std::size_t n, const fft::FxpFftConfig& config,
                                  const AnalyzerOptions& options);

/// analyze_negacyclic(n, config, {input_max_abs}).overflow_free(), memoized
/// process-wide per (n, config, input_max_abs) — keyed like
/// fft::shared_fxp_transform. The pipeline certifier asks this for every
/// HConv unit of every plan, and the units of a layer share the question.
bool negacyclic_overflow_free(std::size_t n, const fft::FxpFftConfig& config,
                              double input_max_abs);

/// Cross-check an empirical run against a proof: returns the report of the
/// first stage whose observed peak mantissa exceeds the proven bound, or
/// nullptr if every observation is inside its interval. `stats` must come
/// from a transform with the same config/size (stage_peak_mantissa index 0
/// is the input quantizer, matching AnalysisResult::stages).
const StageReport* first_interval_violation(const AnalysisResult& result,
                                            const fft::FxpFftStats& stats);

}  // namespace flash::analysis
