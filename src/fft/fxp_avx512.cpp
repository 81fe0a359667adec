// AVX-512 kernel for one batched (8-lane SoA) narrow-path fixed-point DIT
// stage that runs a live-op list. Compiled with -mavx512f -mavx512dq in its
// own TU; fxp_fft.cpp dispatches to it only when the active level
// grants AVX-512.
//
// Vectorization axis: eight *polynomials* interleaved lane-wise, all lanes
// executing one polynomial's butterfly at the same coefficient index — so
// every load is contiguous (no gathers), the twiddle's CSD digit loop runs
// once per op for the whole group, and every lane performs exactly the
// scalar narrow path's int64 operations: bit-identical outputs. Per-lane
// shifts are uniform, done via the variable-count forms with a broadcast
// count.
#include "fft/fxp_kernels.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace flash::fft::detail {

namespace {

inline __m512i csd8(__m512i m, const NarrowDigit* digits, std::size_t count, bool round_nearest) {
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t i = 0; i < count; ++i) {
    const int s = digits[i].shift;
    __m512i term;
    if (s <= 0) {
      term = _mm512_sllv_epi64(m, _mm512_set1_epi64(-s));
    } else {
      term = m;
      if (round_nearest) {
        term = _mm512_add_epi64(term, _mm512_set1_epi64(std::int64_t{1} << (s - 1)));
      }
      term = _mm512_srav_epi64(term, _mm512_set1_epi64(s));
    }
    acc = digits[i].sign > 0 ? _mm512_add_epi64(acc, term) : _mm512_sub_epi64(acc, term);
  }
  return acc;
}

inline __m512i requant8(__m512i v, int shift, bool round_nearest, __m512i lim, __m512i neg_lim,
                        std::uint64_t* sats) {
  if (shift > 0) {
    if (round_nearest) {
      v = _mm512_add_epi64(v, _mm512_set1_epi64(std::int64_t{1} << (shift - 1)));
    }
    v = _mm512_srav_epi64(v, _mm512_set1_epi64(shift));
  } else if (shift < 0) {
    v = _mm512_sllv_epi64(v, _mm512_set1_epi64(-shift));
  }
  const __mmask8 over = _mm512_cmpgt_epi64_mask(v, lim);
  const __mmask8 under = _mm512_cmpgt_epi64_mask(neg_lim, v);
  v = _mm512_mask_mov_epi64(v, over, lim);
  v = _mm512_mask_mov_epi64(v, under, neg_lim);
  *sats += static_cast<std::uint64_t>(
      std::popcount(static_cast<unsigned>(static_cast<unsigned char>(over | under))));
  return v;
}

/// Running peak of |v|. Outputs are clamped to +/-lim, so abs cannot
/// overflow and unsigned max equals the signed max of absolute values.
inline __m512i abs_max8(__m512i peak, __m512i v) {
  return _mm512_max_epu64(peak, _mm512_abs_epi64(v));
}

}  // namespace

void fxp_live_stage_avx512(std::int64_t* re, std::int64_t* im, std::size_t active_lanes,
                           const FxpStageParams& p, FxpFftStats* stats) {
  constexpr std::size_t g = 8;  // SoA lanes per vector
  const __m512i lim = _mm512_set1_epi64(p.lim);
  const __m512i neg_lim = _mm512_set1_epi64(-p.lim);
  const __m512i zero = _mm512_setzero_si512();
  std::uint64_t sats = 0;
  std::uint64_t terms = 0;
  __m512i peak = zero;

  for (const ButterflyOp& op : p.ops) {
    const std::size_t u = std::size_t{op.u} * g;
    const std::size_t v = std::size_t{op.v} * g;
    if (op.kind == OpKind::kCopy) {
      // u + W*0 = u: one requantization, written to (and counted for) both
      // outputs.
      std::uint64_t copy_sats = 0;
      const __m512i out_re = requant8(_mm512_loadu_si512(re + u), p.shift, p.round_nearest, lim,
                                      neg_lim, &copy_sats);
      const __m512i out_im = requant8(_mm512_loadu_si512(im + u), p.shift, p.round_nearest, lim,
                                      neg_lim, &copy_sats);
      sats += 2 * copy_sats;
      peak = abs_max8(abs_max8(peak, out_re), out_im);
      _mm512_storeu_si512(re + u, out_re);
      _mm512_storeu_si512(im + u, out_im);
      _mm512_storeu_si512(re + v, out_re);
      _mm512_storeu_si512(im + v, out_im);
      continue;
    }

    const NarrowTwiddle& tw = p.tw[op.twiddle_index];
    const NarrowDigit* wre = p.pool + tw.re_off;
    const NarrowDigit* wim = p.pool + tw.im_off;
    const __m512i vre = _mm512_loadu_si512(re + v);
    const __m512i vim = _mm512_loadu_si512(im + v);
    const __m512i rr = csd8(vre, wre, tw.re_cnt, p.round_nearest);
    const __m512i ii = csd8(vim, wim, tw.im_cnt, p.round_nearest);
    const __m512i ri = csd8(vre, wim, tw.im_cnt, p.round_nearest);
    const __m512i ir = csd8(vim, wre, tw.re_cnt, p.round_nearest);
    const __m512i tre = _mm512_sub_epi64(rr, ii);
    const __m512i tim = _mm512_add_epi64(ri, ir);
    terms += 2u * (tw.re_cnt + tw.im_cnt);

    __m512i out_ure, out_uim, out_vre, out_vim;
    if (op.kind == OpKind::kFull) {
      const __m512i ure = _mm512_loadu_si512(re + u);
      const __m512i uim = _mm512_loadu_si512(im + u);
      out_ure = requant8(_mm512_add_epi64(ure, tre), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_uim = requant8(_mm512_add_epi64(uim, tim), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_vre = requant8(_mm512_sub_epi64(ure, tre), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_vim = requant8(_mm512_sub_epi64(uim, tim), p.shift, p.round_nearest, lim, neg_lim, &sats);
    } else {  // kMulOnly: 0 + Wv and 0 - Wv, each rounded on its own
      out_ure = requant8(tre, p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_uim = requant8(tim, p.shift, p.round_nearest, lim, neg_lim, &sats);
      if (p.odd_mirror) {
        out_vre = _mm512_sub_epi64(zero, out_ure);
        out_vim = _mm512_sub_epi64(zero, out_uim);
      } else {
        out_vre = requant8(_mm512_sub_epi64(zero, tre), p.shift, p.round_nearest, lim, neg_lim,
                           &sats);
        out_vim = requant8(_mm512_sub_epi64(zero, tim), p.shift, p.round_nearest, lim, neg_lim,
                           &sats);
      }
    }
    peak = abs_max8(abs_max8(abs_max8(abs_max8(peak, out_ure), out_uim), out_vre), out_vim);
    _mm512_storeu_si512(re + u, out_ure);
    _mm512_storeu_si512(im + u, out_uim);
    _mm512_storeu_si512(re + v, out_vre);
    _mm512_storeu_si512(im + v, out_vim);
  }

  if (stats != nullptr) {
    // Per-op counters scale by the real lane count; the saturation count
    // needs no masking because padded (zero) lanes never clamp.
    stats->butterflies += p.ops.size() * active_lanes;
    stats->shift_add_terms += terms * active_lanes;
    stats->saturations += sats;
    const std::uint64_t stage_peak = _mm512_reduce_max_epu64(peak);
    auto& peaks = stats->stage_peak_mantissa;
    if (peaks.size() <= p.stage_idx) peaks.resize(p.stage_idx + 1, 0);
    peaks[p.stage_idx] = std::max(peaks[p.stage_idx], stage_peak);
  }
}

}  // namespace flash::fft::detail

#else  // No AVX-512 in this compiler/arch: unreachable stub (dispatch never selects it).

#include <cstdlib>

namespace flash::fft::detail {
void fxp_live_stage_avx512(std::int64_t*, std::int64_t*, std::size_t, const FxpStageParams&,
                           FxpFftStats*) {
  std::abort();
}
}  // namespace flash::fft::detail

#endif
