#include "analysis/fxp_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/interval.hpp"
#include "core/thread_annotations.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/bitrev.hpp"

namespace flash::analysis {

namespace {

double saturation_limit(int width) { return std::ldexp(1.0, width - 1) - 1.0; }

/// Whole bits of slack between the proven bound and the saturator limit
/// (negative when the bound overshoots). Capped to the data width so empty
/// (all-zero) stages do not report infinite slack.
int guard_bits_of(double bound, double limit, int width) {
  const double b = std::max(bound, 1.0);
  if (b > limit) return -static_cast<int>(std::ceil(std::log2(b / limit)));
  return std::min(width, static_cast<int>(std::floor(std::log2(limit / b))));
}

StageReport make_report(int stage, int frac, double bound, double adder_bound,
                        double value_bound, double error_bound, int width,
                        const AnalyzerOptions& opts) {
  StageReport r;
  r.stage = stage;
  r.frac_bits = frac;
  r.mantissa_bound = bound;
  r.adder_bound = adder_bound;
  r.sat_limit = saturation_limit(width);
  r.value_bound = value_bound;
  r.error_bound = error_bound;
  // Under the PR-2 bug variant the adder output is also clamped at the input
  // fraction scale, so both cuts must fit; the sound datapath only narrows
  // at the stage output register.
  const double check =
      (opts.clamp_adder_pre_requantize && stage >= 1) ? std::max(bound, adder_bound) : bound;
  r.guard_bits = guard_bits_of(check, r.sat_limit, width);
  if (check > r.sat_limit) {
    r.verdict = StageVerdict::kSaturationPossible;
  } else if (r.guard_bits > opts.wasteful_guard_bits) {
    r.verdict = StageVerdict::kWidthWasteful;
  } else {
    r.verdict = StageVerdict::kProvenSafe;
  }
  return r;
}

void validate_config(std::size_t m, const fft::FxpFftConfig& config, int log_m) {
  if (config.stage_frac_bits.size() != static_cast<std::size_t>(log_m)) {
    throw std::invalid_argument("analyze_fxp_fft: stage_frac_bits must have log2(M) entries");
  }
  if (config.data_width < 4 || config.data_width > 62) {
    throw std::invalid_argument("analyze_fxp_fft: data_width out of range [4, 62]");
  }
  if (m < 2) throw std::invalid_argument("analyze_fxp_fft: M must be >= 2");
}

/// Core propagation over an explicit input wire vector (standard order).
/// Mirrors FxpFft::forward exactly: same twiddle table, same stage/stride
/// indexing, same requantize placement.
AnalysisResult analyze_wires(std::size_t m, const fft::FxpFftConfig& config,
                             std::vector<ComplexInterval> wires,
                             const sparsefft::SparseFftPlan* plan, const AnalyzerOptions& opts) {
  const int log_m = hemath::log2_exact(m);
  validate_config(m, config, log_m);
  if (plan && plan->size() != m) {
    throw std::invalid_argument("analyze_fxp_fft: plan size mismatch");
  }
  const auto twiddles =
      fft::quantize_fft_twiddles(m, +1, config.twiddle_k, config.twiddle_min_exp);

  AnalysisResult res;
  res.m = m;
  res.config = config;
  res.stages.reserve(static_cast<std::size_t>(log_m) + 1);

  // Stage 0: the input quantizer (the quantize rounding is already in the
  // wires' round_err; here we only record the mantissa cut).
  int frac = config.input_frac_bits;
  {
    double peak = 0.0, vmax = 0.0, emax = 0.0;
    for (const ComplexInterval& z : wires) {
      peak = std::max(peak, mantissa_bound(z, frac));
      vmax = std::max(vmax, z.component_bound());
      emax = std::max(emax, z.total_error());
    }
    res.stages.push_back(make_report(0, frac, peak, 0.0, vmax, emax, config.data_width, opts));
  }

  hemath::bit_reverse_permute(wires);

  for (int s = 1; s <= log_m; ++s) {
    const int out_frac = config.stage_frac_bits[static_cast<std::size_t>(s - 1)];
    double stage_peak = 0.0, adder_peak = 0.0, vmax = 0.0, emax = 0.0;

    auto note = [&](const ComplexInterval& z) {
      stage_peak = std::max(stage_peak, mantissa_bound(z, out_frac));
      vmax = std::max(vmax, z.component_bound());
      emax = std::max(emax, z.total_error());
    };
    auto full_butterfly = [&](ComplexInterval& u, ComplexInterval& v,
                              const fft::QuantizedTwiddle& w) {
      const ComplexInterval t = twiddle_mul_interval(v, w, frac, config.rounding);
      // u + t and u - t share the same worst-case bound.
      const ComplexInterval sum = add_interval(u, t);
      adder_peak = std::max(adder_peak, mantissa_bound(sum, frac));
      const ComplexInterval out = requantize_interval(sum, frac, out_frac, config.rounding);
      u = out;
      v = out;
      note(out);
    };

    if (plan) {
      for (const sparsefft::ButterflyOp& op : plan->stage(s - 1)) {
        ComplexInterval& u = wires[op.u];
        ComplexInterval& v = wires[op.v];
        switch (op.kind) {
          case sparsefft::OpKind::kFull:
            full_butterfly(u, v, twiddles[op.twiddle_index]);
            break;
          case sparsefft::OpKind::kMulOnly: {
            const ComplexInterval t =
                twiddle_mul_interval(v, twiddles[op.twiddle_index], frac, config.rounding);
            adder_peak = std::max(adder_peak, mantissa_bound(t, frac));
            const ComplexInterval out = requantize_interval(t, frac, out_frac, config.rounding);
            u = out;  // outputs are (Wv, -Wv): identical bounds
            v = out;
            note(out);
            break;
          }
          case sparsefft::OpKind::kCopy: {
            // Pure duplication, but the value still crosses the stage
            // register, so it is re-scaled to the stage's fraction format.
            const ComplexInterval out = requantize_interval(u, frac, out_frac, config.rounding);
            u = out;
            v = out;
            note(out);
            break;
          }
        }
      }
    } else {
      const std::size_t half = std::size_t{1} << (s - 1);
      const std::size_t len = half << 1;
      const std::size_t stride = m >> s;
      for (std::size_t block = 0; block < m; block += len) {
        for (std::size_t j = 0; j < half; ++j) {
          full_butterfly(wires[block + j], wires[block + j + half], twiddles[j * stride]);
        }
      }
    }

    res.stages.push_back(
        make_report(s, out_frac, stage_peak, adder_peak, vmax, emax, config.data_width, opts));
    frac = out_frac;
  }

  res.output_error_bound = res.stages.back().error_bound;
  return res;
}

}  // namespace

bool AnalysisResult::overflow_free() const {
  return first_saturation_possible() == nullptr;
}

const StageReport* AnalysisResult::first_saturation_possible() const {
  for (const StageReport& r : stages) {
    if (r.verdict == StageVerdict::kSaturationPossible) return &r;
  }
  return nullptr;
}

int AnalysisResult::wasteful_stages() const {
  int count = 0;
  for (const StageReport& r : stages) {
    if (r.verdict == StageVerdict::kWidthWasteful) ++count;
  }
  return count;
}

AnalysisResult analyze_fxp_fft(std::size_t m, const fft::FxpFftConfig& config,
                               const AnalyzerOptions& options) {
  // FxpFft quantizes with llround: half an input-ulp per component.
  const double qulp = 0.5 * std::ldexp(1.0, -config.input_frac_bits);
  std::vector<ComplexInterval> wires(m, input_interval(options.input_max_abs, qulp));
  return analyze_wires(m, config, std::move(wires), nullptr, options);
}

AnalysisResult analyze_fxp_fft(std::size_t m, const fft::FxpFftConfig& config,
                               const sparsefft::SparseFftPlan& plan,
                               const AnalyzerOptions& options) {
  const double qulp = 0.5 * std::ldexp(1.0, -config.input_frac_bits);
  // The plan's pattern is expressed in standard order (pre bit-reversal) —
  // but the ButterflyOps address the bit-reversed array, and inactive wires
  // stay exactly zero throughout, so seeding actives from the op graph
  // itself would be circular. Simplest sound seeding: every wire a stage-1
  // op reads is live, everything else is zero. Stage-1 op inputs are
  // exactly the bit-reversed positions of active pattern elements.
  std::vector<ComplexInterval> wires(m, zero_interval());
  const ComplexInterval live = input_interval(options.input_max_abs, qulp);
  std::vector<char> active(m, 0);
  for (const sparsefft::ButterflyOp& op : plan.stage(0)) {
    active[op.u] = 1;
    active[op.v] = 1;
  }
  // analyze_wires bit-reverses its input, so mark actives in standard order
  // by inverting the permutation (bit reversal is an involution).
  hemath::bit_reverse_permute(active);
  for (std::size_t i = 0; i < m; ++i) {
    if (active[i]) wires[i] = live;
  }
  return analyze_wires(m, config, std::move(wires), &plan, options);
}

AnalysisResult analyze_negacyclic(std::size_t n, const fft::FxpFftConfig& config,
                                  const AnalyzerOptions& options) {
  if (n < 4 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("analyze_negacyclic: bad degree");
  }
  const std::size_t m = n / 2;
  const double c = options.input_max_abs;
  const double qulp = 0.5 * std::ldexp(1.0, -config.input_frac_bits);
  const double base = std::numbers::pi / static_cast<double>(n);

  // Fold + quantized twist: z_s = (a_s + i a_{s+m}) * zeta_q^s with
  // |a| <= c, exactly as FxpNegacyclicTransform builds its input.
  std::vector<ComplexInterval> wires(m);
  for (std::size_t s = 0; s < m; ++s) {
    const fft::QuantizedTwiddle tw = fft::quantize_twiddle(
        std::polar(1.0, base * static_cast<double>(s)), config.twiddle_k, config.twiddle_min_exp);
    wires[s] = twisted_input_interval(c, tw, qulp);
  }
  return analyze_wires(m, config, std::move(wires), nullptr, options);
}

const StageReport* first_interval_violation(const AnalysisResult& result,
                                            const fft::FxpFftStats& stats) {
  const std::size_t count = std::min(result.stages.size(), stats.stage_peak_mantissa.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (static_cast<double>(stats.stage_peak_mantissa[i]) > result.stages[i].mantissa_bound) {
      return &result.stages[i];
    }
  }
  return nullptr;
}

namespace {

/// Overflow verdicts by design point and input bound. The lock guards only
/// the map: an analysis runs outside it, and two threads racing on one key
/// compute the same deterministic verdict.
struct OverflowMemo {
  std::mutex mu;
  std::map<std::string, bool> verdicts FLASH_GUARDED_BY(mu);
};

OverflowMemo& overflow_memo() {
  static OverflowMemo memo;  // leaked at exit by design (function-local static)
  return memo;
}

}  // namespace

bool negacyclic_overflow_free(std::size_t n, const fft::FxpFftConfig& config,
                              double input_max_abs) {
  std::ostringstream key;
  key << fft::fxp_config_key(n, config) << '|' << std::hexfloat << input_max_abs;
  OverflowMemo& memo = overflow_memo();
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    const auto it = memo.verdicts.find(key.str());
    if (it != memo.verdicts.end()) return it->second;
  }
  AnalyzerOptions opts;
  opts.input_max_abs = input_max_abs;
  const bool ok = analyze_negacyclic(n, config, opts).overflow_free();
  std::lock_guard<std::mutex> lock(memo.mu);
  memo.verdicts.emplace(key.str(), ok);
  return ok;
}

}  // namespace flash::analysis
