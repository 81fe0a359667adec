// Internal stage-kernel interface of the narrow (64-bit) fixed-point FFT
// path, shared between the scalar code (fxp_fft.cpp) and the AVX2 and
// AVX-512 kernels (fxp_avx2.cpp, fxp_avx512.cpp). Not installed with the
// public headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fft/butterfly_schedule.hpp"
#include "fft/fxp_fft.hpp"

namespace flash::fft::detail {

/// Everything one DIT stage needs. The dense single-transform kernels
/// transform mantissa arrays re/im (length m) in place: for each block of
/// len = 2*half elements and each butterfly j in [0, half), twiddle
/// tw[j*stride] multiplies the lower leg, the sum/difference is requantized
/// by `shift` fraction bits and saturated to +/-lim. The live-op kernels
/// run `ops` instead of the (block, j) loops.
struct FxpStageParams {
  const NarrowDigit* pool = nullptr;
  const NarrowTwiddle* tw = nullptr;  // indexed by twiddle power j*stride
  std::size_t m = 0;
  std::size_t half = 0;     // butterflies per block = 2^(s-1)
  std::size_t stride = 0;   // twiddle power stride = m >> s
  std::size_t stage_idx = 0;  // pipeline cut index for stage_peak_mantissa
  int shift = 0;            // requantize right-shift (negative = left)
  std::int64_t lim = 0;     // saturation bound 2^(width-1)-1
  bool round_nearest = true;
  /// Live-op kernels: the stage's scheduled butterflies.
  std::span<const ButterflyOp> ops;
  /// Injected fault (testing_hooks::set_fxp_odd_symmetric_mul_only): the
  /// multiply-only mirror writes -round(Wv) instead of round(-Wv).
  bool odd_mirror = false;
};

/// AVX2 stage kernel, compiled with -mavx2 in its own TU; callers must have
/// checked the simd level predicate and that the stage has at least four
/// blocks (m / (2*half) >= 4). Vectorizes across four blocks sharing one
/// twiddle, so every lane runs the same shift counts. Bit-identical to the
/// scalar narrow path (same shifts, adds and clamps, in 64-bit lanes) and
/// updates `stats` to the same totals (counts are order-independent).
void fxp_stage_avx2(std::int64_t* re, std::int64_t* im, const FxpStageParams& p,
                    FxpFftStats* stats);

/// Live-op SoA stage kernels: G transforms interleaved lane-wise
/// (coefficient i of lane l at buf[i*G + l], G = 4 for AVX2, 8 for
/// AVX-512) run the stage's op list p.ops, so one butterfly is two
/// contiguous vector loads and the CSD digit loop runs once per op for the
/// whole group. Each op computes exactly what the dense butterfly computes
/// when its dead input is zero:
///   * kFull: requant(u + Wv), requant(u - Wv);
///   * kMulOnly: requant(Wv) and requant(-Wv), separately — round-to-nearest
///     is not odd-symmetric;
///   * kCopy: requant(u) into both outputs, each counting its own
///     saturations as the dense kernel's four requantizations do.
/// Rows of dead wires are never read. Lanes beyond `active_lanes` are zero
/// padding: zero stays zero through every op, so padded lanes add no
/// saturations and a zero peak, and the per-op counters (butterflies = ops,
/// shift-add terms of kFull and kMulOnly ops) scale by active_lanes.
void fxp_live_stage_avx2(std::int64_t* re, std::int64_t* im, std::size_t active_lanes,
                         const FxpStageParams& p, FxpFftStats* stats);
void fxp_live_stage_avx512(std::int64_t* re, std::int64_t* im, std::size_t active_lanes,
                           const FxpStageParams& p, FxpFftStats* stats);

}  // namespace flash::fft::detail
