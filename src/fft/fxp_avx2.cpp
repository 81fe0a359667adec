// AVX2 kernels for narrow-path fixed-point DIT stages: the dense
// single-transform stage and the 4-lane SoA live-op stage. Compiled with
// -mavx2 in its own TU; fxp_fft.cpp dispatches to them only when the
// active level grants AVX2 (and, for the single-transform stage, when the
// stage has >= 4 blocks).
//
// Vectorization axis of the single-transform stage: four *blocks* sharing
// one twiddle per iteration, so all four lanes execute identical shift
// counts (AVX2 has no per-lane 64-bit variable shifts worth using here) and
// the CSD digit loop stays scalar control flow with vector data. Block
// counts are powers of two, so there is never a remainder once >= 4. The
// live-op stage vectorizes across four *polynomials* instead (SoA rows, one
// op per iteration; see fxp_kernels.hpp). Every lane computes exactly the
// scalar narrow path's int64 operations — the constructor's interval
// analysis guarantees no lane overflows — hence bit-identical outputs; the
// stats it produces are order-independent aggregates (sums, maxima) equal
// to the scalar path's.
#include "fft/fxp_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace flash::fft::detail {

namespace {

/// Arithmetic (sign-propagating) right shift by a uniform count; AVX2 only
/// has logical 64-bit shifts, so the sign bits are re-inserted via a mask.
inline __m256i sra64(__m256i x, int s) {
  if (s == 0) return x;
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
  const __m256i lo = _mm256_srli_epi64(x, s);
  const __m256i hi = _mm256_slli_epi64(sign, 64 - s);
  return _mm256_or_si256(lo, hi);
}

/// csd_narrow on four lanes: same digit loop, same round-adds, same order.
inline __m256i csd4(__m256i m, const NarrowDigit* digits, std::size_t count, bool round_nearest) {
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t i = 0; i < count; ++i) {
    const int s = digits[i].shift;
    __m256i term;
    if (s <= 0) {
      term = _mm256_slli_epi64(m, -s);
    } else {
      term = m;
      if (round_nearest) {
        term = _mm256_add_epi64(term, _mm256_set1_epi64x(std::int64_t{1} << (s - 1)));
      }
      term = sra64(term, s);
    }
    acc = digits[i].sign > 0 ? _mm256_add_epi64(acc, term) : _mm256_sub_epi64(acc, term);
  }
  return acc;
}

/// requantize_narrow on four lanes; accumulates the lane saturation count
/// into *sats (each clamped component counts once, matching scalar).
inline __m256i requant4(__m256i v, int shift, bool round_nearest, __m256i lim, __m256i neg_lim,
                        std::uint64_t* sats) {
  if (shift > 0) {
    if (round_nearest) {
      v = _mm256_add_epi64(v, _mm256_set1_epi64x(std::int64_t{1} << (shift - 1)));
    }
    v = sra64(v, shift);
  } else if (shift < 0) {
    v = _mm256_slli_epi64(v, -shift);
  }
  const __m256i over = _mm256_cmpgt_epi64(v, lim);
  const __m256i under = _mm256_cmpgt_epi64(neg_lim, v);
  v = _mm256_blendv_epi8(v, lim, over);
  v = _mm256_blendv_epi8(v, neg_lim, under);
  const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(over, under)));
  *sats += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(mask)));
  return v;
}

/// |x| per lane (inputs are clamped to +/-lim, so negation cannot overflow).
inline __m256i abs64(__m256i x) {
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
  return _mm256_blendv_epi8(x, _mm256_sub_epi64(_mm256_setzero_si256(), x), neg);
}

/// Running per-lane peak of |v|. Outputs are <= lim < 2^62, so the signed
/// compare orders the absolute values.
inline __m256i abs_max4(__m256i peak, __m256i v) {
  const __m256i a = abs64(v);
  return _mm256_blendv_epi8(peak, a, _mm256_cmpgt_epi64(a, peak));
}

}  // namespace

void fxp_stage_avx2(std::int64_t* re, std::int64_t* im, const FxpStageParams& p,
                    FxpFftStats* stats) {
  const std::size_t len = p.half * 2;
  const std::size_t nblocks = p.m / len;
  const __m256i lim = _mm256_set1_epi64x(p.lim);
  const __m256i neg_lim = _mm256_set1_epi64x(-p.lim);
  // Four consecutive blocks: element u of block b+k lives at (b+k)*len + j.
  const long long sl = static_cast<long long>(len);
  const __m256i vindex = _mm256_set_epi64x(3 * sl, 2 * sl, sl, 0);
  std::uint64_t sats = 0;
  std::uint64_t terms = 0;
  __m256i peak = _mm256_setzero_si256();

  for (std::size_t j = 0; j < p.half; ++j) {
    const NarrowTwiddle& tw = p.tw[j * p.stride];
    const NarrowDigit* wre = p.pool + tw.re_off;
    const NarrowDigit* wim = p.pool + tw.im_off;
    for (std::size_t b = 0; b < nblocks; b += 4) {
      const std::size_t u0 = b * len + j;
      const std::size_t v0 = u0 + p.half;
      const __m256i ure = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(re + u0), vindex, 8);
      const __m256i uim = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(im + u0), vindex, 8);
      const __m256i vre = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(re + v0), vindex, 8);
      const __m256i vim = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(im + v0), vindex, 8);

      const __m256i rr = csd4(vre, wre, tw.re_cnt, p.round_nearest);
      const __m256i ii = csd4(vim, wim, tw.im_cnt, p.round_nearest);
      const __m256i ri = csd4(vre, wim, tw.im_cnt, p.round_nearest);
      const __m256i ir = csd4(vim, wre, tw.re_cnt, p.round_nearest);
      const __m256i tre = _mm256_sub_epi64(rr, ii);
      const __m256i tim = _mm256_add_epi64(ri, ir);

      const __m256i out_ure = requant4(_mm256_add_epi64(ure, tre), p.shift, p.round_nearest, lim,
                                       neg_lim, &sats);
      const __m256i out_uim = requant4(_mm256_add_epi64(uim, tim), p.shift, p.round_nearest, lim,
                                       neg_lim, &sats);
      const __m256i out_vre = requant4(_mm256_sub_epi64(ure, tre), p.shift, p.round_nearest, lim,
                                       neg_lim, &sats);
      const __m256i out_vim = requant4(_mm256_sub_epi64(uim, tim), p.shift, p.round_nearest, lim,
                                       neg_lim, &sats);

      // Outputs are <= lim < 2^62, so unsigned per-lane max == signed max of
      // the absolute values; fold all four legs into one running peak.
      peak = _mm256_blendv_epi8(peak, abs64(out_ure),
                                _mm256_cmpgt_epi64(abs64(out_ure), peak));
      peak = _mm256_blendv_epi8(peak, abs64(out_uim),
                                _mm256_cmpgt_epi64(abs64(out_uim), peak));
      peak = _mm256_blendv_epi8(peak, abs64(out_vre),
                                _mm256_cmpgt_epi64(abs64(out_vre), peak));
      peak = _mm256_blendv_epi8(peak, abs64(out_vim),
                                _mm256_cmpgt_epi64(abs64(out_vim), peak));

      // AVX2 has gathers but no scatters; four extracts per array.
      alignas(32) std::int64_t tmp[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), out_ure);
      re[u0] = tmp[0]; re[u0 + len] = tmp[1]; re[u0 + 2 * len] = tmp[2]; re[u0 + 3 * len] = tmp[3];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), out_uim);
      im[u0] = tmp[0]; im[u0 + len] = tmp[1]; im[u0 + 2 * len] = tmp[2]; im[u0 + 3 * len] = tmp[3];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), out_vre);
      re[v0] = tmp[0]; re[v0 + len] = tmp[1]; re[v0 + 2 * len] = tmp[2]; re[v0 + 3 * len] = tmp[3];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), out_vim);
      im[v0] = tmp[0]; im[v0 + len] = tmp[1]; im[v0 + 2 * len] = tmp[2]; im[v0 + 3 * len] = tmp[3];
    }
    terms += nblocks * 2u * (tw.re_cnt + tw.im_cnt);
  }

  if (stats != nullptr) {
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), peak);
    std::uint64_t stage_peak = 0;
    for (std::int64_t lane : lanes) {
      stage_peak = std::max(stage_peak, static_cast<std::uint64_t>(lane));
    }
    stats->butterflies += p.half * nblocks;
    stats->shift_add_terms += terms;
    stats->saturations += sats;
    auto& peaks = stats->stage_peak_mantissa;
    if (peaks.size() <= p.stage_idx) peaks.resize(p.stage_idx + 1, 0);
    peaks[p.stage_idx] = std::max(peaks[p.stage_idx], stage_peak);
  }
}

void fxp_live_stage_avx2(std::int64_t* re, std::int64_t* im, std::size_t active_lanes,
                         const FxpStageParams& p, FxpFftStats* stats) {
  constexpr std::size_t g = 4;  // SoA lanes per vector
  const __m256i lim = _mm256_set1_epi64x(p.lim);
  const __m256i neg_lim = _mm256_set1_epi64x(-p.lim);
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t sats = 0;
  std::uint64_t terms = 0;
  __m256i peak = zero;
  const auto load = [](const std::int64_t* src) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  };
  const auto store = [](std::int64_t* dst, __m256i x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), x);
  };

  for (const ButterflyOp& op : p.ops) {
    const std::size_t u = std::size_t{op.u} * g;
    const std::size_t v = std::size_t{op.v} * g;
    if (op.kind == OpKind::kCopy) {
      // u + W*0 = u: one requantization, written to (and counted for) both
      // outputs.
      std::uint64_t copy_sats = 0;
      const __m256i out_re =
          requant4(load(re + u), p.shift, p.round_nearest, lim, neg_lim, &copy_sats);
      const __m256i out_im =
          requant4(load(im + u), p.shift, p.round_nearest, lim, neg_lim, &copy_sats);
      sats += 2 * copy_sats;
      peak = abs_max4(abs_max4(peak, out_re), out_im);
      store(re + u, out_re);
      store(im + u, out_im);
      store(re + v, out_re);
      store(im + v, out_im);
      continue;
    }

    const NarrowTwiddle& tw = p.tw[op.twiddle_index];
    const NarrowDigit* wre = p.pool + tw.re_off;
    const NarrowDigit* wim = p.pool + tw.im_off;
    const __m256i vre = load(re + v);
    const __m256i vim = load(im + v);
    const __m256i rr = csd4(vre, wre, tw.re_cnt, p.round_nearest);
    const __m256i ii = csd4(vim, wim, tw.im_cnt, p.round_nearest);
    const __m256i ri = csd4(vre, wim, tw.im_cnt, p.round_nearest);
    const __m256i ir = csd4(vim, wre, tw.re_cnt, p.round_nearest);
    const __m256i tre = _mm256_sub_epi64(rr, ii);
    const __m256i tim = _mm256_add_epi64(ri, ir);
    terms += 2u * (tw.re_cnt + tw.im_cnt);

    __m256i out_ure, out_uim, out_vre, out_vim;
    if (op.kind == OpKind::kFull) {
      const __m256i ure = load(re + u);
      const __m256i uim = load(im + u);
      out_ure = requant4(_mm256_add_epi64(ure, tre), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_uim = requant4(_mm256_add_epi64(uim, tim), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_vre = requant4(_mm256_sub_epi64(ure, tre), p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_vim = requant4(_mm256_sub_epi64(uim, tim), p.shift, p.round_nearest, lim, neg_lim, &sats);
    } else {  // kMulOnly: 0 + Wv and 0 - Wv, each rounded on its own
      out_ure = requant4(tre, p.shift, p.round_nearest, lim, neg_lim, &sats);
      out_uim = requant4(tim, p.shift, p.round_nearest, lim, neg_lim, &sats);
      if (p.odd_mirror) {
        out_vre = _mm256_sub_epi64(zero, out_ure);
        out_vim = _mm256_sub_epi64(zero, out_uim);
      } else {
        out_vre = requant4(_mm256_sub_epi64(zero, tre), p.shift, p.round_nearest, lim, neg_lim,
                           &sats);
        out_vim = requant4(_mm256_sub_epi64(zero, tim), p.shift, p.round_nearest, lim, neg_lim,
                           &sats);
      }
    }
    peak = abs_max4(abs_max4(abs_max4(abs_max4(peak, out_ure), out_uim), out_vre), out_vim);
    store(re + u, out_ure);
    store(im + u, out_uim);
    store(re + v, out_vre);
    store(im + v, out_vim);
  }

  if (stats != nullptr) {
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), peak);
    std::uint64_t stage_peak = 0;
    for (std::int64_t lane : lanes) {
      stage_peak = std::max(stage_peak, static_cast<std::uint64_t>(lane));
    }
    // Per-op counters scale by the real lane count; the saturation count
    // needs no masking because padded (zero) lanes never clamp.
    stats->butterflies += p.ops.size() * active_lanes;
    stats->shift_add_terms += terms * active_lanes;
    stats->saturations += sats;
    auto& peaks = stats->stage_peak_mantissa;
    if (peaks.size() <= p.stage_idx) peaks.resize(p.stage_idx + 1, 0);
    peaks[p.stage_idx] = std::max(peaks[p.stage_idx], stage_peak);
  }
}

}  // namespace flash::fft::detail

#else  // !__AVX2__ — non-x86 build: unreachable stubs (dispatch never selects AVX2).

#include <cstdlib>

namespace flash::fft::detail {
void fxp_stage_avx2(std::int64_t*, std::int64_t*, const FxpStageParams&, FxpFftStats*) {
  std::abort();
}
void fxp_live_stage_avx2(std::int64_t*, std::int64_t*, std::size_t, const FxpStageParams&,
                         FxpFftStats*) {
  std::abort();
}
}  // namespace flash::fft::detail

#endif
