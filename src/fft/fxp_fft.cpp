#include "fft/fxp_fft.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/scratch.hpp"
#include "fft/fxp_kernels.hpp"
#include "hemath/bitrev.hpp"
#include "hemath/simd.hpp"

namespace flash::fft {

namespace {

using i64 = std::int64_t;
using i128 = __int128;
using u128 = unsigned __int128;

std::atomic<bool> g_odd_mirror{false};  // testing_hooks fault, off in service

struct FxpComplex {
  i64 re = 0;
  i64 im = 0;
};

/// Left shift that is well defined for negative mantissas: shifts the two's
/// complement bit pattern (what the hardware barrel shifter does). A plain
/// `v << s` on a negative value is UB until C++20 and trips
/// -fsanitize=shift; the unsigned round-trip computes the same bits.
i128 shift_left(i128 v, int s) { return static_cast<i128>(static_cast<u128>(v) << s); }

i64 shift_left64(i64 v, int s) {
  return static_cast<i64>(static_cast<std::uint64_t>(v) << s);  // flash-lint: allow(narrowing-fxp): value-preserving two's-complement reinterpretation, no bits dropped
}

/// Saturate a wide value into `width` total bits (two's complement). This is
/// the one place the FXP path may narrow the accumulator: every value below
/// is clamped into [-lim, lim] first, so the casts cannot drop set bits.
i64 saturate(i128 v, int width, FxpFftStats* stats) {
  const i128 lim = (i128{1} << (width - 1)) - 1;
  if (v > lim) {
    if (stats) ++stats->saturations;
    return static_cast<i64>(lim);  // flash-lint: allow(narrowing-fxp): lim < 2^62 by config validation
  }
  if (v < -lim) {
    if (stats) ++stats->saturations;
    return static_cast<i64>(-lim);  // flash-lint: allow(narrowing-fxp): lim < 2^62 by config validation
  }
  return static_cast<i64>(v);  // flash-lint: allow(narrowing-fxp): v clamped into [-lim, lim] above
}

/// Shift a mantissa right by `s` bits (s >= 0) with the configured rounding.
i128 shift_right(i128 v, int s, RoundingMode mode) {
  if (s == 0) return v;
  if (mode == RoundingMode::kRoundToNearest) v += i128{1} << (s - 1);
  return v >> s;  // arithmetic shift (implementation-defined pre-C++20; GCC/Clang do the right thing)
}

/// Multiply mantissa m (frac bits f) by one CSD-quantized scalar; the result
/// keeps f fraction bits. Each digit sign*2^e contributes sign*(m >> -e)
/// conceptually; we accumulate exactly in 128 bits and round once per digit
/// (matching a shift-add array that truncates at the adder inputs).
i128 csd_multiply(i64 m, const CsdValue& w, RoundingMode mode, FxpFftStats* stats) {
  i128 acc = 0;
  for (const CsdDigit& d : w.digits) {
    i128 term;
    if (d.exponent >= 0) {
      term = shift_left(m, d.exponent);
    } else {
      term = shift_right(m, -d.exponent, mode);
    }
    acc += d.sign > 0 ? term : -term;
    if (stats) ++stats->shift_add_terms;
  }
  return acc;
}

/// Combinational (pre-register) value: the multiplier and adder keep full
/// precision; only the stage output register narrows back to data_width.
struct WideComplex {
  i128 re = 0;
  i128 im = 0;
};

/// Full complex multiply by a quantized twiddle; frac bits preserved. The
/// product stays wide — in hardware the multiplier output feeds the
/// butterfly adder combinationally, so clamping here would drop the carry
/// headroom the requantizer is entitled to round away.
WideComplex twiddle_multiply(FxpComplex a, const QuantizedTwiddle& w, RoundingMode mode,
                             FxpFftStats* stats) {
  const i128 rr = csd_multiply(a.re, w.re, mode, stats);
  const i128 ii = csd_multiply(a.im, w.im, mode, stats);
  const i128 ri = csd_multiply(a.re, w.im, mode, stats);
  const i128 ir = csd_multiply(a.im, w.re, mode, stats);
  return {rr - ii, ri + ir};
}

/// Requantize from f_from fraction bits to f_to, saturating to width — the
/// stage output register: the one place a stage narrows its result.
FxpComplex requantize(WideComplex a, int f_from, int f_to, int width, RoundingMode mode,
                      FxpFftStats* stats) {
  const int shift = f_from - f_to;
  i128 re = a.re, im = a.im;
  if (shift > 0) {
    re = shift_right(re, shift, mode);
    im = shift_right(im, shift, mode);
  } else if (shift < 0) {
    re = shift_left(re, -shift);
    im = shift_left(im, -shift);
  }
  return {saturate(re, width, stats), saturate(im, width, stats)};
}

/// Record the post-saturation mantissa magnitude at pipeline cut `idx`
/// (0 = input quantizer, s = stage s output register). Values are clamped to
/// +/-(2^(width-1)-1) already, so the negation cannot overflow.
void note_peak(FxpFftStats* stats, std::size_t idx, FxpComplex v) {
  if (stats == nullptr) return;
  auto& peaks = stats->stage_peak_mantissa;
  if (peaks.size() <= idx) peaks.resize(idx + 1, 0);
  const std::uint64_t re = static_cast<std::uint64_t>(v.re < 0 ? -v.re : v.re);
  const std::uint64_t im = static_cast<std::uint64_t>(v.im < 0 ? -v.im : v.im);
  peaks[idx] = std::max(peaks[idx], std::max(re, im));
}

/// Record an order-independent per-stage peak computed by a narrow-path
/// stage kernel.
void note_peak_value(FxpFftStats* stats, std::size_t idx, std::uint64_t peak) {
  if (stats == nullptr) return;
  auto& peaks = stats->stage_peak_mantissa;
  if (peaks.size() <= idx) peaks.resize(idx + 1, 0);
  peaks[idx] = std::max(peaks[idx], peak);
}

i64 quantize_to_mantissa(double v, double scale, int width, FxpFftStats* stats) {
  // scale is 2^frac_bits, so the multiply is the exact ldexp(v, frac_bits).
  i128 m = static_cast<i128>(std::llround(v * scale));
  return saturate(m, width, stats);
}

// ---------------------------------------------------------------------------
// Narrow (64-bit) path: same integers, provably overflow-free.
// ---------------------------------------------------------------------------

/// One CSD multiply on the narrow plan. Mirrors csd_multiply digit for
/// digit; the constructor's interval analysis guarantees the round-add and
/// the accumulator stay inside int64, so every operation here computes the
/// same value as its 128-bit counterpart.
i64 csd_narrow(i64 m, const detail::NarrowDigit* digits, std::size_t count, bool round_nearest) {
  i64 acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const int s = digits[i].shift;
    i64 term;
    if (s <= 0) {
      term = shift_left64(m, -s);
    } else {
      term = m;
      if (round_nearest) term += i64{1} << (s - 1);
      term >>= s;
    }
    acc += digits[i].sign > 0 ? term : -term;
  }
  return acc;
}

i64 requantize_narrow(i64 v, int shift, bool round_nearest, i64 lim, std::uint64_t* sats) {
  if (shift > 0) {
    if (round_nearest) v += i64{1} << (shift - 1);
    v >>= shift;
  } else if (shift < 0) {
    v = shift_left64(v, -shift);
  }
  if (v > lim) {
    ++*sats;
    return lim;
  }
  if (v < -lim) {
    ++*sats;
    return -lim;
  }
  return v;
}

/// Scalar narrow stage: reference implementation the AVX2 kernel must match
/// bit for bit. Loops j (twiddle) outer / block inner like the vector
/// kernel; butterflies within a stage are independent, so the order does not
/// affect values, and all stats are order-independent aggregates.
void fxp_stage_scalar(i64* re, i64* im, const detail::FxpStageParams& p, FxpFftStats* stats) {
  const std::size_t len = p.half * 2;
  const std::size_t nblocks = p.m / len;
  std::uint64_t sats = 0;
  std::uint64_t terms = 0;
  std::uint64_t peak = 0;
  for (std::size_t j = 0; j < p.half; ++j) {
    const detail::NarrowTwiddle& tw = p.tw[j * p.stride];
    const detail::NarrowDigit* wre = p.pool + tw.re_off;
    const detail::NarrowDigit* wim = p.pool + tw.im_off;
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t u = b * len + j;
      const std::size_t v = u + p.half;
      const i64 vr = re[v];
      const i64 vi = im[v];
      const i64 rr = csd_narrow(vr, wre, tw.re_cnt, p.round_nearest);
      const i64 ii = csd_narrow(vi, wim, tw.im_cnt, p.round_nearest);
      const i64 ri = csd_narrow(vr, wim, tw.im_cnt, p.round_nearest);
      const i64 ir = csd_narrow(vi, wre, tw.re_cnt, p.round_nearest);
      const i64 tre = rr - ii;
      const i64 tim = ri + ir;
      const i64 ure = re[u];
      const i64 uim = im[u];
      re[u] = requantize_narrow(ure + tre, p.shift, p.round_nearest, p.lim, &sats);
      im[u] = requantize_narrow(uim + tim, p.shift, p.round_nearest, p.lim, &sats);
      re[v] = requantize_narrow(ure - tre, p.shift, p.round_nearest, p.lim, &sats);
      im[v] = requantize_narrow(uim - tim, p.shift, p.round_nearest, p.lim, &sats);
      const std::uint64_t m1 =
          std::max(static_cast<std::uint64_t>(re[u] < 0 ? -re[u] : re[u]),
                   static_cast<std::uint64_t>(im[u] < 0 ? -im[u] : im[u]));
      const std::uint64_t m2 =
          std::max(static_cast<std::uint64_t>(re[v] < 0 ? -re[v] : re[v]),
                   static_cast<std::uint64_t>(im[v] < 0 ? -im[v] : im[v]));
      peak = std::max(peak, std::max(m1, m2));
    }
    terms += nblocks * 2u * (tw.re_cnt + tw.im_cnt);
  }
  if (stats != nullptr) {
    stats->butterflies += p.half * nblocks;
    stats->shift_add_terms += terms;
    stats->saturations += sats;
    note_peak_value(stats, p.stage_idx, peak);
  }
}

/// Scalar live-op stage (one transform, rows of one lane): the reference
/// the SoA kernels of fxp_kernels.hpp must match bit for bit.
void fxp_live_stage_scalar(i64* re, i64* im, const detail::FxpStageParams& p,
                           FxpFftStats* stats) {
  const auto mag = [](i64 x) { return static_cast<std::uint64_t>(x < 0 ? -x : x); };
  std::uint64_t sats = 0;
  std::uint64_t terms = 0;
  std::uint64_t peak = 0;
  for (const ButterflyOp& op : p.ops) {
    if (op.kind == OpKind::kCopy) {
      // u + W*0 = u: one requantization, written to (and counted for) both
      // outputs.
      std::uint64_t copy_sats = 0;
      const i64 out_re = requantize_narrow(re[op.u], p.shift, p.round_nearest, p.lim, &copy_sats);
      const i64 out_im = requantize_narrow(im[op.u], p.shift, p.round_nearest, p.lim, &copy_sats);
      sats += 2 * copy_sats;
      re[op.u] = re[op.v] = out_re;
      im[op.u] = im[op.v] = out_im;
      peak = std::max(peak, std::max(mag(out_re), mag(out_im)));
      continue;
    }
    const detail::NarrowTwiddle& tw = p.tw[op.twiddle_index];
    const detail::NarrowDigit* wre = p.pool + tw.re_off;
    const detail::NarrowDigit* wim = p.pool + tw.im_off;
    const i64 vr = re[op.v];
    const i64 vi = im[op.v];
    const i64 tre = csd_narrow(vr, wre, tw.re_cnt, p.round_nearest) -
                    csd_narrow(vi, wim, tw.im_cnt, p.round_nearest);
    const i64 tim = csd_narrow(vr, wim, tw.im_cnt, p.round_nearest) +
                    csd_narrow(vi, wre, tw.re_cnt, p.round_nearest);
    terms += 2u * (tw.re_cnt + tw.im_cnt);
    if (op.kind == OpKind::kFull) {
      const i64 ure = re[op.u];
      const i64 uim = im[op.u];
      re[op.u] = requantize_narrow(ure + tre, p.shift, p.round_nearest, p.lim, &sats);
      im[op.u] = requantize_narrow(uim + tim, p.shift, p.round_nearest, p.lim, &sats);
      re[op.v] = requantize_narrow(ure - tre, p.shift, p.round_nearest, p.lim, &sats);
      im[op.v] = requantize_narrow(uim - tim, p.shift, p.round_nearest, p.lim, &sats);
    } else {  // kMulOnly: 0 + Wv and 0 - Wv, each rounded on its own
      re[op.u] = requantize_narrow(tre, p.shift, p.round_nearest, p.lim, &sats);
      im[op.u] = requantize_narrow(tim, p.shift, p.round_nearest, p.lim, &sats);
      if (p.odd_mirror) {
        re[op.v] = -re[op.u];
        im[op.v] = -im[op.u];
      } else {
        re[op.v] = requantize_narrow(-tre, p.shift, p.round_nearest, p.lim, &sats);
        im[op.v] = requantize_narrow(-tim, p.shift, p.round_nearest, p.lim, &sats);
      }
    }
    peak = std::max(peak, std::max(std::max(mag(re[op.u]), mag(im[op.u])),
                                   std::max(mag(re[op.v]), mag(im[op.v]))));
  }
  if (stats != nullptr) {
    stats->butterflies += p.ops.size();
    stats->shift_add_terms += terms;
    stats->saturations += sats;
    note_peak_value(stats, p.stage_idx, peak);
  }
}

/// Interval bound of |csd_multiply(m, w)| for |m| <= lim, including the
/// per-digit round-add, evaluated exactly in 128 bits.
u128 csd_bound(const CsdValue& w, u128 lim) {
  u128 b = 0;
  for (const CsdDigit& d : w.digits) {
    if (d.exponent >= 0) {
      b += lim << d.exponent;
    } else {
      b += (lim >> -d.exponent) + 1;  // +1 covers the round-to-nearest bias
    }
  }
  return b;
}

}  // namespace

void FxpFftStats::merge(const FxpFftStats& other) {
  shift_add_terms += other.shift_add_terms;
  butterflies += other.butterflies;
  saturations += other.saturations;
  if (stage_peak_mantissa.size() < other.stage_peak_mantissa.size()) {
    stage_peak_mantissa.resize(other.stage_peak_mantissa.size(), 0);
  }
  for (std::size_t i = 0; i < other.stage_peak_mantissa.size(); ++i) {
    stage_peak_mantissa[i] = std::max(stage_peak_mantissa[i], other.stage_peak_mantissa[i]);
  }
}

FxpFftConfig FxpFftConfig::uniform(std::size_t m, int frac_bits, int data_width, int twiddle_k) {
  FxpFftConfig cfg;
  cfg.input_frac_bits = frac_bits;
  cfg.stage_frac_bits.assign(static_cast<std::size_t>(hemath::log2_exact(m)), frac_bits);
  cfg.data_width = data_width;
  cfg.twiddle_k = twiddle_k;
  return cfg;
}

FxpFft::FxpFft(std::size_t m, FxpFftConfig config) : m_(m), config_(std::move(config)) {
  log_m_ = hemath::log2_exact(m);
  if (config_.stage_frac_bits.size() != static_cast<std::size_t>(log_m_)) {
    throw std::invalid_argument("FxpFft: stage_frac_bits must have log2(M) entries");
  }
  if (config_.data_width < 4 || config_.data_width > 62) {
    throw std::invalid_argument("FxpFft: data_width out of range [4, 62]");
  }
  twiddles_ = quantize_fft_twiddles(m_, +1, config_.twiddle_k, config_.twiddle_min_exp);
  build_narrow_plan();
}

void FxpFft::build_narrow_plan() {
  // Static overflow analysis for the 64-bit path. Every narrow intermediate
  // is one of:
  //   (a) a CSD term with its round-add: |m| + 2^(s-1), then shifted;
  //   (b) a CSD accumulator: bounded by the sum of term magnitudes B_w;
  //   (c) a butterfly leg u +/- t: |.| <= lim + max_w B_w;
  //   (d) the requantizer input: (c) plus the round-add, or (c) shifted
  //       left by -shift.
  // We require every bound to stay below 2^62 — a 2x margin under the int64
  // limit — evaluated exactly in 128-bit arithmetic. When the analysis
  // fails (exotic design points), narrow_ok_ stays false and the generic
  // 128-bit path runs.
  const u128 cap = u128{1} << 62;
  const u128 lim = (u128{1} << (config_.data_width - 1)) - 1;

  u128 max_b = 0;
  bool ok = true;
  for (const QuantizedTwiddle& w : twiddles_) {
    for (const CsdDigit& d : w.re.digits) {
      if (d.exponent < 0 && lim + (u128{1} << (-d.exponent - 1)) >= cap) ok = false;
      if (d.exponent > 60) ok = false;
    }
    for (const CsdDigit& d : w.im.digits) {
      if (d.exponent < 0 && lim + (u128{1} << (-d.exponent - 1)) >= cap) ok = false;
      if (d.exponent > 60) ok = false;
    }
    const u128 b = csd_bound(w.re, lim) + csd_bound(w.im, lim);
    max_b = std::max(max_b, b);
  }
  const u128 stage_in = lim + max_b;  // |u +/- t|
  if (stage_in >= cap) ok = false;

  int frac = config_.input_frac_bits;
  for (int s = 1; s <= log_m_; ++s) {
    const int out_frac = config_.stage_frac_bits[static_cast<std::size_t>(s - 1)];
    const int shift = frac - out_frac;
    if (shift > 0) {
      if (shift >= 62 || stage_in + (u128{1} << (shift - 1)) >= cap) ok = false;
    } else if (shift < 0) {
      if (-shift >= 62 || (stage_in << -shift) >= cap) ok = false;
    }
    frac = out_frac;
  }
  if (!ok) {
    narrow_ok_ = false;
    return;
  }

  // Flatten each twiddle's CSD digits into one pool (re run then im run) so
  // a stage walks contiguous memory.
  digit_pool_.clear();
  narrow_tw_.clear();
  narrow_tw_.reserve(twiddles_.size());
  auto push_digits = [this](const CsdValue& c) {
    const auto off = static_cast<std::uint32_t>(digit_pool_.size());
    for (const CsdDigit& d : c.digits) {
      detail::NarrowDigit nd;
      nd.shift = static_cast<std::int16_t>(-d.exponent);  // flash-lint: allow(narrowing-fxp): exponents are config-bounded small integers
      nd.sign = static_cast<std::int16_t>(d.sign);        // flash-lint: allow(narrowing-fxp): sign is +/-1
      digit_pool_.push_back(nd);
    }
    return std::pair{off, static_cast<std::uint32_t>(c.digits.size())};
  };
  for (const QuantizedTwiddle& w : twiddles_) {
    detail::NarrowTwiddle nt;
    std::tie(nt.re_off, nt.re_cnt) = push_digits(w.re);
    std::tie(nt.im_off, nt.im_cnt) = push_digits(w.im);
    narrow_tw_.push_back(nt);
  }
  full_schedule_.emplace(ButterflySchedule::full(m_));
  narrow_ok_ = true;
}

void FxpFft::forward_into(std::span<const cplx> in, std::span<cplx> out, FxpFftStats* stats,
                          core::ScratchArena* arena_p) const {
  if (in.size() != m_ || out.size() != m_) {
    throw std::invalid_argument("FxpFft::forward: size mismatch");
  }
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  const double in_scale = std::ldexp(1.0, config_.input_frac_bits);

  if (narrow_ok_) {
    std::span<i64> re = frame.alloc<i64>(m_);
    std::span<i64> im = frame.alloc<i64>(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      re[i] = quantize_to_mantissa(in[i].real(), in_scale, config_.data_width, stats);
      im[i] = quantize_to_mantissa(in[i].imag(), in_scale, config_.data_width, stats);
      note_peak(stats, 0, FxpComplex{re[i], im[i]});
    }
    hemath::bit_reverse_permute(re);
    hemath::bit_reverse_permute(im);

    const bool avx2 = hemath::simd::level_at_least(hemath::simd::SimdLevel::kAvx2);
    int frac = config_.input_frac_bits;
    for (int s = 1; s <= log_m_; ++s) {
      const int out_frac = config_.stage_frac_bits[static_cast<std::size_t>(s - 1)];
      detail::FxpStageParams p;
      p.pool = digit_pool_.data();
      p.tw = narrow_tw_.data();
      p.m = m_;
      p.half = std::size_t{1} << (s - 1);
      p.stride = m_ >> s;
      p.stage_idx = static_cast<std::size_t>(s);
      p.shift = frac - out_frac;
      p.lim = (i64{1} << (config_.data_width - 1)) - 1;
      p.round_nearest = config_.rounding == RoundingMode::kRoundToNearest;
      if (avx2 && (m_ >> s) >= 4) {
        detail::fxp_stage_avx2(re.data(), im.data(), p, stats);
      } else {
        fxp_stage_scalar(re.data(), im.data(), p, stats);
      }
      frac = out_frac;
    }

    const double out_scale = std::ldexp(1.0, -frac);
    for (std::size_t i = 0; i < m_; ++i) {
      out[i] = cplx{static_cast<double>(re[i]) * out_scale, static_cast<double>(im[i]) * out_scale};
    }
    return;
  }

  // Generic 128-bit fallback (design points the narrow analysis rejects).
  std::span<FxpComplex> a = frame.alloc<FxpComplex>(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    a[i].re = quantize_to_mantissa(in[i].real(), in_scale, config_.data_width, stats);
    a[i].im = quantize_to_mantissa(in[i].imag(), in_scale, config_.data_width, stats);
    note_peak(stats, 0, a[i]);
  }
  hemath::bit_reverse_permute(a);

  int frac = config_.input_frac_bits;
  for (int s = 1; s <= log_m_; ++s) {
    const int out_frac = config_.stage_frac_bits[static_cast<std::size_t>(s - 1)];
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::size_t len = half << 1;
    const std::size_t stride = m_ >> s;
    for (std::size_t block = 0; block < m_; block += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const QuantizedTwiddle& w = twiddles_[j * stride];
        FxpComplex& u = a[block + j];
        FxpComplex& v = a[block + j + half];
        // The butterfly sum/difference stays wide until the stage output
        // register: saturating the adder at the *input* fraction scale would
        // clamp legitimately-doubled values that the requantizer's right
        // shift is about to bring back in range (a rare-input, large-error
        // bug the differential fuzzer caught).
        const WideComplex t = twiddle_multiply(v, w, config_.rounding, stats);
        WideComplex top{i128{u.re} + t.re, i128{u.im} + t.im};
        WideComplex bot{i128{u.re} - t.re, i128{u.im} - t.im};
        u = requantize(top, frac, out_frac, config_.data_width, config_.rounding, stats);
        v = requantize(bot, frac, out_frac, config_.data_width, config_.rounding, stats);
        note_peak(stats, static_cast<std::size_t>(s), u);
        note_peak(stats, static_cast<std::size_t>(s), v);
        if (stats) ++stats->butterflies;
      }
    }
    frac = out_frac;
  }

  const double out_scale = std::ldexp(1.0, -frac);
  for (std::size_t i = 0; i < m_; ++i) {
    out[i] = cplx{static_cast<double>(a[i].re) * out_scale,
                  static_cast<double>(a[i].im) * out_scale};
  }
}

namespace {

/// Lane-group width for the batched narrow path at the active SIMD level
/// (ARCHITECTURE.md §11's dispatch matrix): a remainder of 2..4 at the
/// AVX-512 level drops to the 4-lane kernel.
std::size_t fxp_group_width(std::size_t remaining) {
  using hemath::simd::SimdLevel;
  if (hemath::simd::level_at_least(SimdLevel::kAvx512) && remaining > 4) return 8;
  if (hemath::simd::level_at_least(SimdLevel::kAvx2)) return 4;
  return 1;
}

}  // namespace

void FxpFft::forward_group_live(const cplx* const* in, cplx* const* out, std::size_t count,
                                std::size_t g, const ButterflySchedule& live, FxpFftStats* stats,
                                core::ScratchArena* arena_p) const {
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<i64> re = frame.alloc<i64>(m_ * g);
  std::span<i64> im = frame.alloc<i64>(m_ * g);
  const double in_scale = std::ldexp(1.0, config_.input_frac_bits);
  // Only live inputs are quantized, each straight onto its bit-reversed
  // row; no op reads a dead row before writing it.
  const std::vector<std::uint32_t>& inputs = live.live_inputs();
  for (std::uint32_t i : inputs) {
    const std::size_t row = hemath::bit_reverse(i, log_m_) * g;
    i64* rrow = re.data() + row;
    i64* irow = im.data() + row;
    for (std::size_t l = 0; l < count; ++l) {
      rrow[l] = quantize_to_mantissa(in[l][i].real(), in_scale, config_.data_width, stats);
      irow[l] = quantize_to_mantissa(in[l][i].imag(), in_scale, config_.data_width, stats);
      note_peak(stats, 0, FxpComplex{rrow[l], irow[l]});
    }
    for (std::size_t l = count; l < g; ++l) {
      rrow[l] = 0;
      irow[l] = 0;
    }
  }

  const bool odd_mirror = g_odd_mirror.load(std::memory_order_relaxed);
  int frac = config_.input_frac_bits;
  for (int s = 1; s <= log_m_; ++s) {
    const int out_frac = config_.stage_frac_bits[static_cast<std::size_t>(s - 1)];
    detail::FxpStageParams p;
    p.pool = digit_pool_.data();
    p.tw = narrow_tw_.data();
    p.stage_idx = static_cast<std::size_t>(s);
    p.shift = frac - out_frac;
    p.lim = (i64{1} << (config_.data_width - 1)) - 1;
    p.round_nearest = config_.rounding == RoundingMode::kRoundToNearest;
    p.ops = live.stage(s - 1);
    p.odd_mirror = odd_mirror;
    if (g == 8) {
      detail::fxp_live_stage_avx512(re.data(), im.data(), count, p, stats);
    } else if (g == 4) {
      detail::fxp_live_stage_avx2(re.data(), im.data(), count, p, stats);
    } else {
      fxp_live_stage_scalar(re.data(), im.data(), p, stats);
    }
    frac = out_frac;
  }

  // A nonempty schedule has written every row by its last stage; an empty
  // one transforms zeros.
  if (inputs.empty()) {
    for (std::size_t l = 0; l < count; ++l) std::fill(out[l], out[l] + m_, cplx{0.0, 0.0});
    return;
  }
  const double out_scale = std::ldexp(1.0, -frac);
  for (std::size_t i = 0; i < m_; ++i) {
    const i64* rrow = re.data() + i * g;
    const i64* irow = im.data() + i * g;
    for (std::size_t l = 0; l < count; ++l) {
      out[l][i] = cplx{static_cast<double>(rrow[l]) * out_scale,
                       static_cast<double>(irow[l]) * out_scale};
    }
  }
}

void FxpFft::forward_batch_into(std::span<const cplx* const> in, std::span<cplx* const> out,
                                FxpFftStats* stats, core::ScratchArena* arena_p,
                                const ButterflySchedule* live) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("FxpFft::forward_batch: size mismatch");
  }
  if (live != nullptr && live->size() != m_) {
    throw std::invalid_argument("FxpFft::forward_batch: schedule size mismatch");
  }
  std::size_t done = 0;
  while (done < in.size()) {
    const std::size_t remaining = in.size() - done;
    // A lone transform runs one lane: in a zero-padded 4-lane group three of
    // every four lanes would be padding (1.2-1.6x slower than the scalar
    // loop on ResNet-18 patterns at 48-bit/k = 20).
    const std::size_t g = narrow_ok_ && remaining > 1 ? fxp_group_width(remaining) : 1;
    if (!narrow_ok_ || (live == nullptr && g == 1)) {
      // The 128-bit fallback, and a lone transform without a schedule, run
      // the dense single-transform path.
      forward_into(std::span<const cplx>(in[done], m_), std::span<cplx>(out[done], m_), stats,
                   arena_p);
      ++done;
      continue;
    }
    const std::size_t count = std::min(remaining, g);
    forward_group_live(in.data() + done, out.data() + done, count, g,
                       live != nullptr ? *live : *full_schedule_, stats, arena_p);
    done += count;
  }
}

void FxpFft::inverse_batch_into(std::span<const cplx* const> in, std::span<cplx* const> out,
                                FxpFftStats* stats, core::ScratchArena* arena_p) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("FxpFft::inverse_batch: size mismatch");
  }
  // Same conj-forward-conj identity as inverse_into, with the forward run
  // on the batched path; the per-lane double operations are identical to
  // the single-transform sequence, so outputs stay bit-identical.
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  const std::size_t batch = in.size();
  std::span<cplx> conj_buf = frame.alloc<cplx>(m_ * batch);
  std::span<const cplx*> conj_ptrs = frame.alloc<const cplx*>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    cplx* dst = conj_buf.data() + b * m_;
    for (std::size_t i = 0; i < m_; ++i) dst[i] = std::conj(in[b][i]);
    conj_ptrs[b] = dst;
  }
  forward_batch_into(std::span<const cplx* const>(conj_ptrs.data(), batch), out, stats, &arena);
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < m_; ++i) out[b][i] = std::conj(out[b][i]) * inv_m;
  }
}

void FxpFft::inverse_into(std::span<const cplx> in, std::span<cplx> out, FxpFftStats* stats,
                          core::ScratchArena* arena_p) const {
  if (in.size() != m_ || out.size() != m_) {
    throw std::invalid_argument("FxpFft::inverse: size mismatch");
  }
  // inverse(x) = conj(forward(conj(x))) / M with the sign=+1 kernel; the
  // conjugations are sign flips (free) and /M is an exact scaling by a
  // power of two.
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> conj_in = frame.alloc<cplx>(m_);
  for (std::size_t i = 0; i < m_; ++i) conj_in[i] = std::conj(in[i]);
  forward_into(conj_in, out, stats, &arena);
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (auto& v : out) v = std::conj(v) * inv_m;
}

std::vector<cplx> FxpFft::forward(const std::vector<cplx>& in, FxpFftStats* stats) const {
  std::vector<cplx> out(m_);
  forward_into(in, out, stats);
  return out;
}

std::vector<cplx> FxpFft::inverse(const std::vector<cplx>& in, FxpFftStats* stats) const {
  std::vector<cplx> out(m_);
  inverse_into(in, out, stats);
  return out;
}

FxpNegacyclicTransform::FxpNegacyclicTransform(std::size_t n, FxpFftConfig config)
    : n_(n), fft_(n / 2, std::move(config)) {
  if (n < 4 || (n & (n - 1)) != 0) throw std::invalid_argument("FxpNegacyclicTransform: bad degree");
  const std::size_t m = n_ / 2;
  twist_.resize(m);
  const double base = std::numbers::pi / static_cast<double>(n_);
  const auto& cfg = fft_.config();
  for (std::size_t s = 0; s < m; ++s) {
    twist_[s] = quantize_twiddle(std::polar(1.0, base * static_cast<double>(s)), cfg.twiddle_k,
                                 cfg.twiddle_min_exp);
  }
}

void FxpNegacyclicTransform::forward_into(std::span<const double> a, std::span<cplx> out,
                                          FxpFftStats* stats, core::ScratchArena* arena_p) const {
  if (a.size() != n_) throw std::invalid_argument("FxpNegacyclicTransform::forward: size mismatch");
  const std::size_t m = n_ / 2;
  if (out.size() != m) {
    throw std::invalid_argument("FxpNegacyclicTransform::forward: bad output size");
  }
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> z = frame.alloc<cplx>(m);
  for (std::size_t s = 0; s < m; ++s) {
    // Twist in the quantized domain: the hardware applies the same shift-add
    // multiplier used for stage twiddles.
    z[s] = cplx{a[s], a[s + m]} * twist_[s].value();
  }
  fft_.forward_into(z, out, stats, &arena);
}

void FxpNegacyclicTransform::inverse_into(std::span<const cplx> spec, std::span<double> out,
                                          FxpFftStats* stats, core::ScratchArena* arena_p) const {
  const std::size_t m = n_ / 2;
  if (spec.size() != m) {
    throw std::invalid_argument("FxpNegacyclicTransform::inverse: size mismatch");
  }
  if (out.size() != n_) {
    throw std::invalid_argument("FxpNegacyclicTransform::inverse: bad output size");
  }
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> z = frame.alloc<cplx>(m);
  fft_.inverse_into(spec, z, stats, &arena);
  for (std::size_t s = 0; s < m; ++s) {
    const cplx w = z[s] * std::conj(twist_[s].value());
    out[s] = w.real();
    out[s + m] = w.imag();
  }
}

void FxpNegacyclicTransform::forward_batch_into(std::span<const double* const> a,
                                                std::span<cplx* const> out, FxpFftStats* stats,
                                                core::ScratchArena* arena_p,
                                                const ButterflySchedule* live) const {
  if (a.size() != out.size()) {
    throw std::invalid_argument("FxpNegacyclicTransform::forward_batch: size mismatch");
  }
  const std::size_t m = n_ / 2;
  const std::size_t batch = a.size();
  if (live != nullptr) {
    if (live->size() != m) {
      throw std::invalid_argument("FxpNegacyclicTransform::forward_batch: schedule size mismatch");
    }
    // Skipping is exact only on exact zeros: refuse a polynomial with data
    // the schedule would drop. Branch-free: OR the bits of every dead
    // coefficient pair, then ignore the sign bit (-0.0 is a zero).
    for (std::size_t b = 0; b < batch; ++b) {
      std::uint64_t stray = 0;
      for (std::size_t s = 0; s < m; ++s) {
        const std::uint64_t dead = std::uint64_t{live->is_live_input(s)} - 1;  // ~0 when dead
        stray |= (std::bit_cast<std::uint64_t>(a[b][s]) |
                  std::bit_cast<std::uint64_t>(a[b][s + m])) & dead;
      }
      if ((stray << 1) != 0) {
        throw std::invalid_argument(
            "FxpNegacyclicTransform::forward_batch: nonzero coefficient outside the schedule");
      }
    }
  }
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> z_buf = frame.alloc<cplx>(m * batch);
  std::span<const cplx*> z_ptrs = frame.alloc<const cplx*>(batch);
  // The narrow path reads only the live inputs, so only those are twisted;
  // the 128-bit fallback reads every element.
  const bool twist_live_only = live != nullptr && fft_.uses_narrow_path();
  for (std::size_t b = 0; b < batch; ++b) {
    cplx* z = z_buf.data() + b * m;
    if (twist_live_only) {
      for (std::uint32_t s : live->live_inputs()) {
        z[s] = cplx{a[b][s], a[b][s + m]} * twist_[s].value();
      }
    } else {
      for (std::size_t s = 0; s < m; ++s) {
        z[s] = cplx{a[b][s], a[b][s + m]} * twist_[s].value();
      }
    }
    z_ptrs[b] = z;
  }
  fft_.forward_batch_into(std::span<const cplx* const>(z_ptrs.data(), batch), out, stats, &arena,
                          live);
}

void FxpNegacyclicTransform::inverse_batch_into(std::span<const cplx* const> spec,
                                                std::span<double* const> out, FxpFftStats* stats,
                                                core::ScratchArena* arena_p) const {
  if (spec.size() != out.size()) {
    throw std::invalid_argument("FxpNegacyclicTransform::inverse_batch: size mismatch");
  }
  const std::size_t m = n_ / 2;
  const std::size_t batch = spec.size();
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> z_buf = frame.alloc<cplx>(m * batch);
  std::span<cplx*> z_ptrs = frame.alloc<cplx*>(batch);
  for (std::size_t b = 0; b < batch; ++b) z_ptrs[b] = z_buf.data() + b * m;
  fft_.inverse_batch_into(spec, std::span<cplx* const>(z_ptrs.data(), batch), stats, &arena);
  for (std::size_t b = 0; b < batch; ++b) {
    const cplx* z = z_ptrs[b];
    for (std::size_t s = 0; s < m; ++s) {
      const cplx w = z[s] * std::conj(twist_[s].value());
      out[b][s] = w.real();
      out[b][s + m] = w.imag();
    }
  }
}

std::vector<cplx> FxpNegacyclicTransform::forward(const std::vector<double>& a,
                                                  FxpFftStats* stats) const {
  std::vector<cplx> out(n_ / 2);
  forward_into(a, out, stats);
  return out;
}

std::vector<double> FxpNegacyclicTransform::inverse(const std::vector<cplx>& spec,
                                                    FxpFftStats* stats) const {
  std::vector<double> out(n_);
  inverse_into(spec, out, stats);
  return out;
}

namespace testing_hooks {
void set_fxp_odd_symmetric_mul_only(bool on) {
  g_odd_mirror.store(on, std::memory_order_relaxed);
}
}  // namespace testing_hooks

double relative_spectrum_rmse(const std::vector<cplx>& approx, const std::vector<cplx>& exact) {
  if (approx.size() != exact.size() || exact.empty()) {
    throw std::invalid_argument("relative_spectrum_rmse: size mismatch");
  }
  double err = 0.0, mag = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    err += std::norm(approx[i] - exact[i]);
    mag += std::norm(exact[i]);
  }
  if (mag == 0.0) return std::sqrt(err / static_cast<double>(exact.size()));
  return std::sqrt(err / mag);
}

}  // namespace flash::fft
