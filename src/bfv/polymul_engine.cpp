#include "bfv/polymul_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/scratch.hpp"
#include "fft/spectral.hpp"
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
  core::ScratchFrame frame(core::thread_scratch());
  // Signed lift mod t of each polynomial, as doubles.
  std::span<double> vals = frame.alloc<double>(count * p.n);
  std::span<const double*> rows = frame.alloc<const double*>(count);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t i = 0; i < p.n; ++i) {
      vals[b * p.n + i] = static_cast<double>(hemath::to_signed(pts[b].poly[i], p.t));
    }
    rows[b] = vals.data() + b * p.n;
  }
  transform_signed_batch(rows, out, live);
  return out;
}

void PolyMulEngine::transform_signed_batch(std::span<const double* const> rows,
                                           std::span<PlainSpectrum> out,
                                           const fft::ButterflySchedule* live) const {
  const auto& p = ctx_.params();
  const std::size_t count = rows.size();
  if (out.size() != count) {
    throw std::invalid_argument("transform_signed_batch: one output per row");
  }
  bump(counters_.plain_transforms, count);
  if (backend_ == PolyMulBackend::kApproxFft) {
    // One SoA lane-group sweep per SIMD width of polynomials, bit-identical
    // to a forward_into per polynomial; skip mode when `live` is given.
    core::ScratchFrame frame(core::thread_scratch());
    std::span<fft::cplx*> spec = frame.alloc<fft::cplx*>(count);
    for (std::size_t b = 0; b < count; ++b) {
      out[b].backend = backend_;
      out[b].fft.resize(p.n / 2);
      spec[b] = out[b].fft.data();
    }
    approx_->forward_batch_into(rows, spec, nullptr, &frame.arena(), live);
    return;
  }
  for (std::size_t b = 0; b < count; ++b) {
    const std::span<const double> row(rows[b], p.n);
    out[b].backend = backend_;
    switch (backend_) {
      case PolyMulBackend::kNtt: {
        std::vector<u64> lifted(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          lifted[i] = hemath::from_signed(static_cast<i64>(row[i]), p.q);
        }
        ctx_.ntt().forward(lifted);
        out[b].ntt = std::move(lifted);
        break;
      }
      case PolyMulBackend::kFft:
        out[b].fft.resize(p.n / 2);
        ctx_.fft().forward_into(row, out[b].fft);
        break;
      case PolyMulBackend::kPow2:
        // Signed lift mod t into Z_{2^k}: negative weights wrap into the
        // ring's upper half, exactly what u64 two's-complement masking
        // produces.
        out[b].pow2.resize(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          out[b].pow2[i] = pow2_->from_signed(static_cast<i64>(row[i]));
        }
        break;
      case PolyMulBackend::kApproxFft:
        break;  // batched above
    }
  }
}

Poly PolyMulEngine::inverse_to_poly(std::span<const fft::cplx> spec) const {
  const auto& p = ctx_.params();
  core::ScratchFrame frame(core::thread_scratch());
  std::span<double> vals = frame.alloc<double>(p.n);
  ctx_.fft().inverse_into(spec, vals, &frame.arena());
  bump(counters_.inverse_transforms);
  Poly out(p.q, p.n);
  fft::round_to_zq(vals, p.q, out.coeffs().data());
  return out;
}

Poly PolyMulEngine::inverse_words(std::span<const u64> words) const {
  Poly out(ctx_.params().q, std::vector<u64>(words.begin(), words.end()));
  // kPow2 accumulates in the coefficient domain: its "inverse" is the copy.
  if (backend_ == PolyMulBackend::kNtt) ctx_.ntt().inverse(out.coeffs());
  bump(counters_.inverse_transforms);
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

void PolyMulEngine::check_backends(std::span<const CipherSpectrum* const> ct,
                                   std::span<const PlainSpectrum* const> w) const {
  bool match = true;
  for (const CipherSpectrum* c : ct) match = match && c->backend == backend_;
  for (const PlainSpectrum* x : w) match = match && x->backend == backend_;
  if (!match) throw std::invalid_argument("multiply_accumulate: backend mismatch");
}

SpectralSums PolyMulEngine::zeroed_sums(std::size_t count, core::ScratchFrame& frame) const {
  const std::size_t n = ctx_.params().n;
  if (is_fp()) {
    std::span<fft::cplx> data = frame.alloc<fft::cplx>(count * (n / 2));
    std::fill(data.begin(), data.end(), fft::cplx{0.0, 0.0});
    std::span<fft::cplx*> sums = frame.alloc<fft::cplx*>(count);
    for (std::size_t s = 0; s < count; ++s) sums[s] = data.data() + s * (n / 2);
    return {sums, {}};
  }
  std::span<u64> data = frame.alloc<u64>(count * n);
  std::fill(data.begin(), data.end(), u64{0});
  std::span<u64*> sums = frame.alloc<u64*>(count);
  for (std::size_t s = 0; s < count; ++s) sums[s] = data.data() + s * n;
  return {{}, sums};
}

void PolyMulEngine::multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                                        SpectralAccumulator& accum) const {
  const CipherSpectrum* ct[] = {&ct_spec};
  const PlainSpectrum* ws[] = {&w};
  SpectralAccumulator* accs[] = {&accum};
  multiply_accumulate_block(ct, ws, accs);
}

void PolyMulEngine::multiply_accumulate_block(std::span<const CipherSpectrum* const> ct,
                                              std::span<const PlainSpectrum* const> w,
                                              std::span<SpectralAccumulator* const> accs) const {
  check_backends(ct, w);
  const std::size_t n = ctx_.params().n;
  core::ScratchFrame frame(core::thread_scratch());
  std::span<fft::cplx*> fft_sums = frame.alloc<fft::cplx*>(is_fp() ? accs.size() : 0);
  std::span<u64*> word_sums = frame.alloc<u64*>(is_fp() ? 0 : accs.size());
  for (std::size_t s = 0; s < accs.size(); ++s) {
    SpectralAccumulator& a = *accs[s];
    if (a.empty) {
      a.backend = backend_;
      if (is_fp()) {
        a.fft.assign(n / 2, fft::cplx{0.0, 0.0});
      } else {
        (backend_ == PolyMulBackend::kNtt ? a.ntt : a.pow2).assign(n, 0);
      }
      a.empty = false;
    } else if (a.backend != backend_) {
      throw std::invalid_argument("multiply_accumulate: backend mismatch");
    }
    if (is_fp()) {
      fft_sums[s] = a.fft.data();
    } else {
      word_sums[s] = (backend_ == PolyMulBackend::kNtt ? a.ntt : a.pow2).data();
    }
  }
  multiply_accumulate_block(ct, w, SpectralSums{fft_sums, word_sums});
}

void PolyMulEngine::multiply_accumulate_block(std::span<const CipherSpectrum* const> ct,
                                              std::span<const PlainSpectrum* const> w,
                                              const SpectralSums& sums) const {
  check_backends(ct, w);
  const std::size_t products = ct.size() * w.size();
  if ((is_fp() ? sums.fft.size() : sums.words.size()) != products) {
    throw std::invalid_argument("multiply_accumulate_block: need one sum per (component, output)");
  }
  const auto& p = ctx_.params();
  const std::size_t outputs = w.size();
  switch (backend_) {
    case PolyMulBackend::kNtt:
      for (std::size_t b = 0; b < outputs; ++b) {
        for (std::size_t c = 0; c < ct.size(); ++c) {
          hemath::pointwise_mulmod_accumulate(sums.words[c * outputs + b], ct[c]->ntt.data(),
                                              w[b]->ntt.data(), p.n, p.q);
        }
      }
      bump(counters_.pointwise_products, products * p.n);
      return;
    case PolyMulBackend::kPow2: {
      // Each accumulate is a full negacyclic product (there is no cheap
      // spectral-domain point product mod 2^k); the sum stays in coefficient
      // domain so finalize is still a single copy per output polynomial.
      core::ScratchFrame frame(core::thread_scratch());
      std::span<u64> prod = frame.alloc<u64>(p.n);
      for (std::size_t b = 0; b < outputs; ++b) {
        for (std::size_t c = 0; c < ct.size(); ++c) {
          hemath::negacyclic_mul_pow2_into(ct[c]->pow2.data(), w[b]->pow2.data(), prod.data(), p.n,
                                           *pow2_, &frame.arena());
          hemath::pointwise_add_pow2(sums.words[c * outputs + b], prod.data(), p.n, *pow2_);
        }
      }
      bump(counters_.pointwise_products, products * hemath::pow2_mult_count(p.n));
      return;
    }
    case PolyMulBackend::kFft:
    case PolyMulBackend::kApproxFft: {
      core::ScratchFrame frame(core::thread_scratch());
      std::span<const fft::cplx*> ct_fft = frame.alloc<const fft::cplx*>(ct.size());
      std::span<const fft::cplx*> w_fft = frame.alloc<const fft::cplx*>(outputs);
      for (std::size_t c = 0; c < ct.size(); ++c) ct_fft[c] = ct[c]->fft.data();
      for (std::size_t b = 0; b < outputs; ++b) w_fft[b] = w[b]->fft.data();
      fft::spectral_mac_block(ct_fft, w_fft, sums.fft, p.n / 2);
      bump(counters_.pointwise_products, products * (p.n / 2));
      return;
    }
  }
}

Poly PolyMulEngine::finalize(const SpectralAccumulator& accum) const {
  if (accum.empty) throw std::invalid_argument("finalize: empty accumulator");
  if (accum.backend != backend_) throw std::invalid_argument("finalize: backend mismatch");
  if (is_fp()) return inverse_to_poly(accum.fft);
  return inverse_words(backend_ == PolyMulBackend::kNtt ? accum.ntt : accum.pow2);
}

Poly PolyMulEngine::finalize(const SpectralSums& sums, std::size_t s) const {
  const std::size_t n = ctx_.params().n;
  if (is_fp()) return inverse_to_poly({sums.fft[s], n / 2});
  return inverse_words({sums.words[s], n});
}

}  // namespace flash::bfv
