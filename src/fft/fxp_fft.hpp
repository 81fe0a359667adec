// Bit-accurate fixed-point FFT simulator (paper Section IV-C).
//
// FLASH's weight transforms run on approximate butterfly units: fixed-point
// data with a per-stage bit-width chosen by the DSE, and twiddle factors
// quantized to k CSD digits so each multiplication is a k-term shift-add.
// This simulator reproduces that arithmetic exactly: values are held as
// 64-bit integer mantissas, twiddle products are evaluated digit-by-digit as
// arithmetic shifts and adds, and every stage output is rounded/saturated to
// the configured format. The result is bit-identical to what the RTL would
// compute, which is what the error-model validation and the accuracy
// experiments (Fig. 5(b), Fig. 11(b)(c)) need.
//
// Two execution paths compute the same integers:
//   * a generic 128-bit accumulator path, valid for every legal config;
//   * a narrow 64-bit path, taken when a constructor-time overflow analysis
//     proves every intermediate fits int64 — then 64-bit two's-complement
//     arithmetic is exact and the paths are bit-identical by construction
//     (pinned by tests/test_simd_kernels.cpp over the differential corpus).
//
// On the narrow path a single transform runs dense stages (an AVX2 kernel
// vectorized across blocks, see fxp_kernels.hpp). Batches run in skip mode
// (paper §IV-B): the SoA lane groups execute a ButterflySchedule's op lists,
// so a weight pattern's dead butterflies are never touched. kCopy writes
// round(u) to both outputs and kMulOnly rounds Wv and -Wv separately, so
// spectra, saturation counts and stage peaks equal the dense transform's bit
// for bit; butterflies and shift-add terms count the ops executed. Without a
// schedule a batch runs the full (dense) schedule. The served kApproxFft
// weight transform passes each HConv unit's schedule
// (HConvProtocol::prepare_weights), and the differential tests pin skip mode
// against dense at every SIMD level (tests/test_live_fxp.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fft/butterfly_schedule.hpp"
#include "fft/complex_fft.hpp"
#include "fft/twiddle.hpp"

namespace flash::core {
class ScratchArena;
}  // namespace flash::core

namespace flash::fft {

namespace detail {

/// One flattened CSD digit of the narrow plan: multiply contributes
/// sign * (m >> shift), where a negative shift encodes a left shift.
struct NarrowDigit {
  std::int16_t shift = 0;  // arithmetic right-shift count; negative = left
  std::int16_t sign = 1;   // +1 or -1
};

/// Digit-pool slice for one twiddle: [re_off, re_off+re_cnt) are the real
/// component's digits, likewise im. Indexed by twiddle power.
struct NarrowTwiddle {
  std::uint32_t re_off = 0;
  std::uint32_t re_cnt = 0;
  std::uint32_t im_off = 0;
  std::uint32_t im_cnt = 0;
};

}  // namespace detail

/// Rounding applied when narrowing a mantissa.
enum class RoundingMode {
  kTruncate,        // drop LSBs (cheapest hardware)
  kRoundToNearest,  // add half-ulp then drop
};

/// Full parameterization of one approximate FFT instance. This is the DSE's
/// design point.
struct FxpFftConfig {
  /// Fraction bits of the data entering stage 1 (after fold/twist quantization).
  int input_frac_bits = 16;
  /// Fraction bits retained after each stage; size must equal log2(M).
  std::vector<int> stage_frac_bits;
  /// Total data width (sign + integer + fraction) used for saturation.
  int data_width = 39;
  /// CSD digits per twiddle component (the paper's k).
  int twiddle_k = 5;
  /// Smallest representable twiddle digit exponent (fraction depth of Fig. 9).
  int twiddle_min_exp = -20;
  RoundingMode rounding = RoundingMode::kRoundToNearest;

  /// Uniform per-stage fraction bits convenience constructor.
  static FxpFftConfig uniform(std::size_t m, int frac_bits, int data_width, int twiddle_k);
};

/// Dynamic instruction counts of one transform; drives the energy model.
///
/// Not thread-safe: each thread accumulates into its own instance and the
/// owner combines them with merge() (per-thread stats replaced the old
/// shared-object pattern, whose note_peak resize raced under the pipeline).
struct FxpFftStats {
  std::uint64_t shift_add_terms = 0;  // executed CSD terms (hardware adds)
  std::uint64_t butterflies = 0;      // executed butterflies (ops of a schedule)
  std::uint64_t saturations = 0;      // overflow clamps (should be ~0 in a sane design)
  /// Largest |mantissa| observed at each pipeline cut, maximized across every
  /// transform sharing this stats object: index 0 is the input quantizer
  /// output, index s the stage-s output register. Grown lazily on first use;
  /// the static analyzer's per-stage bounds (analysis/fxp_analyzer.hpp) must
  /// dominate these, which flash_fuzz cross-checks.
  std::vector<std::uint64_t> stage_peak_mantissa;

  /// Fold another thread's (or call's) counts into this one: sums the
  /// counters, elementwise-maxes the per-stage peaks.
  void merge(const FxpFftStats& other);
};

/// M-point complex FFT over fixed-point mantissas with the e^{+2*pi*i/M}
/// kernel (matching FftPlan sign=+1 and the folded negacyclic transform).
class FxpFft {
 public:
  FxpFft(std::size_t m, FxpFftConfig config);

  std::size_t size() const { return m_; }
  const FxpFftConfig& config() const { return config_; }
  const std::vector<QuantizedTwiddle>& twiddles() const { return twiddles_; }
  /// True when the 64-bit SoA path (and thus the AVX2 stage kernel) is
  /// provably overflow-free for this design point.
  bool uses_narrow_path() const { return narrow_ok_; }

  /// Simulate the transform. Input/output are doubles; the internal
  /// arithmetic is exact integer shift-add per the configuration.
  std::vector<cplx> forward(const std::vector<cplx>& in, FxpFftStats* stats = nullptr) const;

  /// Inverse transform on the same approximate datapath (conjugate CSD
  /// twiddles; the 1/M scaling is an exact arithmetic shift). FLASH runs the
  /// dense inverse transforms of HConv on the approximate array, so this is
  /// part of the modelled hardware, not just a test convenience.
  std::vector<cplx> inverse(const std::vector<cplx>& in, FxpFftStats* stats = nullptr) const;

  /// Allocation-free variants: working storage comes from `arena` (the
  /// calling thread's arena when null); `out` must have size() elements and
  /// may not alias `in`. Steady state performs zero heap allocations.
  void forward_into(std::span<const cplx> in, std::span<cplx> out, FxpFftStats* stats = nullptr,
                    core::ScratchArena* arena = nullptr) const;
  void inverse_into(std::span<const cplx> in, std::span<cplx> out, FxpFftStats* stats = nullptr,
                    core::ScratchArena* arena = nullptr) const;

  /// Batched transforms: each in[b]/out[b] points at size() elements. On the
  /// narrow path the batch runs as SoA lane groups — one op-list sweep per
  /// stage covers the whole group, loading each op's CSD digits once per
  /// group instead of once per transform (AVX-512 = 8 lanes, AVX2 = 4,
  /// scalar = 1; see ARCHITECTURE.md §11 for the remainder policy).
  ///
  /// `live` (size() points) restricts the work to its scheduled butterflies;
  /// every in[b] must be zero outside live->live_inputs(), and the narrow
  /// path never reads those elements. Null runs the full schedule, and a
  /// lone transform without one takes forward_into. Outputs, saturations and
  /// stage peaks are bit-identical to a loop of forward_into at every SIMD
  /// level; butterflies and shift-add terms count the executed ops (the
  /// dense totals on the full schedule). Zero steady-state heap allocations
  /// (scratch via `arena`).
  void forward_batch_into(std::span<const cplx* const> in, std::span<cplx* const> out,
                          FxpFftStats* stats = nullptr, core::ScratchArena* arena = nullptr,
                          const ButterflySchedule* live = nullptr) const;
  void inverse_batch_into(std::span<const cplx* const> in, std::span<cplx* const> out,
                          FxpFftStats* stats = nullptr, core::ScratchArena* arena = nullptr) const;

 private:
  void build_narrow_plan();
  /// One lane group of `count` transforms in SoA rows of width g (8, 4 or
  /// 1) running `live`'s op lists.
  void forward_group_live(const cplx* const* in, cplx* const* out, std::size_t count,
                          std::size_t g, const ButterflySchedule& live, FxpFftStats* stats,
                          core::ScratchArena* arena) const;

  std::size_t m_;
  int log_m_;
  FxpFftConfig config_;
  std::vector<QuantizedTwiddle> twiddles_;  // W_M^j, j in [0, M/2)
  // Narrow-path plan: per-twiddle digit runs flattened into one pool so a
  // stage kernel touches contiguous memory instead of chasing CsdValue
  // vectors (empty when narrow_ok_ is false).
  std::vector<detail::NarrowDigit> digit_pool_;
  std::vector<detail::NarrowTwiddle> narrow_tw_;
  std::optional<ButterflySchedule> full_schedule_;  // narrow path only
  bool narrow_ok_ = false;
};

/// Approximate forward negacyclic transform of an integer polynomial:
/// fold + (quantized) twist + FxpFft. This is exactly the datapath of one
/// FLASH approximate PE transforming a weight plaintext.
class FxpNegacyclicTransform {
 public:
  FxpNegacyclicTransform(std::size_t n, FxpFftConfig config);

  std::size_t degree() const { return n_; }
  const FxpFft& fft() const { return fft_; }

  std::vector<cplx> forward(const std::vector<double>& a, FxpFftStats* stats = nullptr) const;

  /// Half-spectrum back to n real coefficients on the approximate datapath.
  std::vector<double> inverse(const std::vector<cplx>& spec, FxpFftStats* stats = nullptr) const;

  /// Allocation-free variants; `out` sized n/2 (forward) / n (inverse).
  void forward_into(std::span<const double> a, std::span<cplx> out, FxpFftStats* stats = nullptr,
                    core::ScratchArena* arena = nullptr) const;
  void inverse_into(std::span<const cplx> spec, std::span<double> out,
                    FxpFftStats* stats = nullptr, core::ScratchArena* arena = nullptr) const;

  /// Batched variants: each a[b] points at n doubles, out[b] at n/2 complex
  /// (forward) and vice versa (inverse). The twist is applied per lane and
  /// the FFT runs on the SoA batched path; bit-identical to a loop of the
  /// single-transform calls at every SIMD level.
  ///
  /// `live` (n/2 points, built on the folded pattern: coefficient i lands on
  /// FFT input i mod n/2) runs skip mode: only live inputs are twisted and
  /// quantized and only scheduled butterflies run. A polynomial with a
  /// nonzero coefficient outside the schedule throws std::invalid_argument.
  void forward_batch_into(std::span<const double* const> a, std::span<cplx* const> out,
                          FxpFftStats* stats = nullptr, core::ScratchArena* arena = nullptr,
                          const ButterflySchedule* live = nullptr) const;
  void inverse_batch_into(std::span<const cplx* const> spec, std::span<double* const> out,
                          FxpFftStats* stats = nullptr, core::ScratchArena* arena = nullptr) const;

 private:
  std::size_t n_;
  FxpFft fft_;
  std::vector<QuantizedTwiddle> twist_;  // zeta^s, CSD-quantized
};

namespace testing_hooks {
/// Test-only fault: the multiply-only butterflies of skip mode write
/// -round(Wv) to the mirror output instead of round(-Wv) — the
/// odd-symmetry shortcut round-to-nearest does not allow. The oracle's
/// self-test (flash_fuzz --inject mul-only-odd) proves its skip-vs-dense arm
/// catches it. Process-wide; toggle only while no transform runs.
void set_fxp_odd_symmetric_mul_only(bool on);
}  // namespace testing_hooks

/// Root-mean-square error between an approximate and an exact spectrum,
/// normalized by the RMS magnitude of the exact spectrum.
double relative_spectrum_rmse(const std::vector<cplx>& approx, const std::vector<cplx>& exact);

}  // namespace flash::fft
