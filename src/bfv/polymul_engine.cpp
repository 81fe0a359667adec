#include "bfv/polymul_engine.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/scratch.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/pointwise.hpp"

namespace flash::bfv {

namespace {
/// Relaxed tally: counters are statistics, not synchronization.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}
}  // namespace

PolyMulEngine::PolyMulEngine(const BfvContext& ctx, PolyMulBackend backend,
                             std::optional<fft::FxpFftConfig> approx_config)
    : ctx_(ctx), backend_(backend) {
  if (backend_ == PolyMulBackend::kApproxFft) {
    if (!approx_config) throw std::invalid_argument("PolyMulEngine: kApproxFft requires a config");
    approx_ = fft::shared_fxp_transform(ctx_.params().n, *approx_config);
  }
  if (backend_ == PolyMulBackend::kPow2) {
    if (!ctx_.params().q_is_pow2()) {
      throw std::invalid_argument("PolyMulEngine: kPow2 requires a power-of-two q (create_pow2)");
    }
    pow2_.emplace(std::countr_zero(ctx_.params().q));
  }
}

PlainSpectrum PolyMulEngine::transform_plain(const Plaintext& pt) const {
  return std::move(transform_plain_batch(std::span<const Plaintext>(&pt, 1)).front());
}

std::vector<PlainSpectrum> PolyMulEngine::transform_plain_batch(
    std::span<const Plaintext> pts, const fft::ButterflySchedule* live) const {
  const auto& p = ctx_.params();
  const std::size_t count = pts.size();
  std::vector<PlainSpectrum> out(count);
  bump(counters_.plain_transforms, count);
  core::ScratchFrame frame(core::thread_scratch());
  // Signed lift mod t of polynomial b, as doubles (the FP backends' input).
  const auto lift = [&](std::size_t b, std::span<double> vals) {
    for (std::size_t i = 0; i < p.n; ++i) {
      vals[i] = static_cast<double>(hemath::to_signed(pts[b].poly[i], p.t));
    }
  };
  if (backend_ == PolyMulBackend::kApproxFft) {
    // One SoA lane-group sweep per SIMD width of polynomials, bit-identical
    // to a forward_into per polynomial; skip mode when `live` is given.
    std::span<double> vals = frame.alloc<double>(count * p.n);
    std::span<const double*> in = frame.alloc<const double*>(count);
    std::span<fft::cplx*> spec = frame.alloc<fft::cplx*>(count);
    for (std::size_t b = 0; b < count; ++b) {
      lift(b, vals.subspan(b * p.n, p.n));
      in[b] = vals.data() + b * p.n;
      out[b].backend = backend_;
      out[b].fft.resize(p.n / 2);
      spec[b] = out[b].fft.data();
    }
    approx_->forward_batch_into(in, spec, nullptr, &frame.arena(), live);
    return out;
  }
  std::span<double> vals = frame.alloc<double>(p.n);
  for (std::size_t b = 0; b < count; ++b) {
    out[b].backend = backend_;
    switch (backend_) {
      case PolyMulBackend::kNtt: {
        std::vector<u64> lifted(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          lifted[i] = hemath::from_signed(hemath::to_signed(pts[b].poly[i], p.t), p.q);
        }
        ctx_.ntt().forward(lifted);
        out[b].ntt = std::move(lifted);
        break;
      }
      case PolyMulBackend::kFft: {
        lift(b, vals);
        out[b].fft.resize(p.n / 2);
        ctx_.fft().forward_into(vals, out[b].fft);
        break;
      }
      case PolyMulBackend::kPow2: {
        // Signed lift mod t into Z_{2^k}: negative weights wrap into the
        // ring's upper half, exactly what u64 two's-complement masking
        // produces.
        out[b].pow2.resize(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          out[b].pow2[i] = pow2_->from_signed(hemath::to_signed(pts[b].poly[i], p.t));
        }
        break;
      }
      case PolyMulBackend::kApproxFft:
        break;  // batched above
    }
  }
  return out;
}

Poly PolyMulEngine::inverse_to_poly(const std::vector<fft::cplx>& spec) const {
  const auto& p = ctx_.params();
  core::ScratchFrame frame(core::thread_scratch());
  std::span<double> vals = frame.alloc<double>(p.n);
  ctx_.fft().inverse_into(spec, vals, &frame.arena());
  bump(counters_.inverse_transforms);
  // from_signed(llround(x), q) without a division. Below 2^62 the
  // truncation and the fraction are exact in double, so whole + (frac >=
  // 1/2) is llround's half-away-from-zero magnitude; the reduction takes its
  // quotient from 1/q, which is off by at most one once q > 2^11 (smaller
  // moduli loop a few more times). Larger or non-finite x keeps the library
  // call, so inputs outside llround's range map exactly as it maps them.
  const u64 q = p.q;
  const double inv_q = 1.0 / static_cast<double>(q);
  Poly out(q, p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    const double x = vals[i];
    const double a = std::fabs(x);
    if (!(a < 0x1p62)) {
      out[i] = hemath::from_signed(static_cast<i64>(std::llround(x)), q);
      continue;
    }
    const u64 whole = static_cast<u64>(a);
    const u64 mag = whole + (a - static_cast<double>(whole) >= 0.5 ? 1 : 0);
    i64 r = static_cast<i64>(mag - static_cast<u64>(static_cast<double>(mag) * inv_q) * q);
    while (r < 0) r += static_cast<i64>(q);
    while (r >= static_cast<i64>(q)) r -= static_cast<i64>(q);
    out[i] = x < 0 && r != 0 ? q - static_cast<u64>(r) : static_cast<u64>(r);
  }
  return out;
}

CipherSpectrum PolyMulEngine::transform_cipher_spectrum(const Poly& ct_poly) const {
  const auto& p = ctx_.params();
  CipherSpectrum spec;
  spec.backend = backend_;
  bump(counters_.cipher_transforms);
  if (backend_ == PolyMulBackend::kNtt) {
    spec.ntt = ct_poly.coeffs();
    ctx_.ntt().forward(spec.ntt);
  } else if (backend_ == PolyMulBackend::kPow2) {
    // No spectral domain mod 2^k: the "transform" is the residues themselves
    // (already < q = 2^k, so already mask-reduced).
    spec.pow2 = ct_poly.coeffs();
  } else {
    // Both FP backends transform ciphertexts in double precision; only the
    // weight side is approximate.
    core::ScratchFrame frame(core::thread_scratch());
    std::span<double> vals = frame.alloc<double>(p.n);
    for (std::size_t i = 0; i < p.n; ++i) {
      vals[i] = static_cast<double>(hemath::to_signed(ct_poly[i], p.q));
    }
    spec.fft.resize(p.n / 2);
    ctx_.fft().forward_into(vals, spec.fft);
  }
  return spec;
}

void PolyMulEngine::multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                                        SpectralAccumulator& accum) const {
  if (ct_spec.backend != backend_ || w.backend != backend_) {
    throw std::invalid_argument("multiply_accumulate: backend mismatch");
  }
  const auto& p = ctx_.params();
  if (backend_ == PolyMulBackend::kNtt) {
    if (accum.empty) {
      accum.backend = backend_;
      accum.ntt.assign(p.n, 0);
      accum.empty = false;
    }
    hemath::pointwise_mulmod_accumulate(accum.ntt.data(), ct_spec.ntt.data(), w.ntt.data(), p.n,
                                        p.q);
    bump(counters_.pointwise_products, p.n);
  } else if (backend_ == PolyMulBackend::kPow2) {
    if (accum.empty) {
      accum.backend = backend_;
      accum.pow2.assign(p.n, 0);
      accum.empty = false;
    }
    // Each accumulate is a full negacyclic product (there is no cheap
    // spectral-domain point product mod 2^k); the sum stays in coefficient
    // domain so finalize is still a single copy per output polynomial.
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64> prod = frame.alloc<u64>(p.n);
    hemath::negacyclic_mul_pow2_into(ct_spec.pow2.data(), w.pow2.data(), prod.data(), p.n, *pow2_,
                                     &frame.arena());
    hemath::pointwise_add_pow2(accum.pow2.data(), prod.data(), p.n, *pow2_);
    bump(counters_.pointwise_products, hemath::pow2_mult_count(p.n));
  } else {
    if (accum.empty) {
      accum.backend = backend_;
      accum.fft.assign(p.n / 2, fft::cplx{0.0, 0.0});
      accum.empty = false;
    }
    for (std::size_t i = 0; i < p.n / 2; ++i) accum.fft[i] += ct_spec.fft[i] * w.fft[i];
    bump(counters_.pointwise_products, p.n / 2);
  }
}

Poly PolyMulEngine::finalize(const SpectralAccumulator& accum) const {
  if (accum.empty) throw std::invalid_argument("finalize: empty accumulator");
  if (accum.backend != backend_) throw std::invalid_argument("finalize: backend mismatch");
  const auto& p = ctx_.params();
  if (backend_ == PolyMulBackend::kNtt) {
    std::vector<u64> coeffs = accum.ntt;
    ctx_.ntt().inverse(coeffs);
    bump(counters_.inverse_transforms);
    return Poly(p.q, std::move(coeffs));
  }
  if (backend_ == PolyMulBackend::kPow2) {
    std::vector<u64> coeffs = accum.pow2;
    bump(counters_.inverse_transforms);
    return Poly(p.q, std::move(coeffs));
  }
  return inverse_to_poly(accum.fft);
}

}  // namespace flash::bfv
