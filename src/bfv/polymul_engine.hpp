// Ciphertext x plaintext polynomial multiplication backends.
//
// This is the component FLASH accelerates. Four interchangeable backends:
//
//   kNtt        — exact modular arithmetic (what CPU libraries like SEAL and
//                 NTT accelerators like F1/CHAM compute); Fig. 4(a).
//   kFft        — double-precision N/2-point FFT with rounding back to Z_q;
//                 Fig. 4(b) with full-precision FP butterflies.
//   kApproxFft  — the FLASH datapath: the *plaintext* (weight) transform runs
//                 on approximate fixed-point BUs with quantized twiddles,
//                 while ciphertext transforms / pointwise ops stay in FP.
//   kPow2       — Jaguar-style Z_{2^k} ring (q = 2^k): modular reduction is
//                 a bit-mask instead of a Barrett/Montgomery mulhi chain.
//                 No NTT exists mod 2^k, so there is no spectral domain at
//                 all — "transforms" are signed lifts/copies and the product
//                 runs as exact Karatsuba over wrapping u64
//                 (hemath/pow2.hpp), proven bit-correct against schoolbook
//                 by the differential tier (ARCHITECTURE.md §14).
//
// Plaintext spectra are precomputed once (transform_plain) and reused across
// every ciphertext they multiply, mirroring how FLASH amortizes weight
// transforms across ciphertext tiles and both ciphertext components. Every
// ct x pt product, of one term or a sum of many, is the same three calls:
// transform_cipher_spectrum -> multiply_accumulate -> finalize.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bfv/context.hpp"
#include "fft/fxp_fft.hpp"
#include "hemath/pow2.hpp"

namespace flash::bfv {

enum class PolyMulBackend { kNtt, kFft, kApproxFft, kPow2 };

/// Spectral form of a plaintext polynomial under a specific backend.
struct PlainSpectrum {
  PolyMulBackend backend = PolyMulBackend::kNtt;
  std::vector<u64> ntt;        // kNtt: NTT of the signed lift to Z_q
  std::vector<fft::cplx> fft;  // kFft/kApproxFft: negacyclic half-spectrum
  std::vector<u64> pow2;       // kPow2: signed lift to Z_{2^k} (coefficient
                               // domain — no spectral domain exists mod 2^k)
};

/// Spectral form of one ciphertext polynomial (computed once per ciphertext
/// element and reused across every weight it multiplies — the activation
/// transform amortization of paper §III-B).
struct CipherSpectrum {
  PolyMulBackend backend = PolyMulBackend::kNtt;
  std::vector<u64> ntt;
  std::vector<fft::cplx> fft;
  std::vector<u64> pow2;
};

/// Spectral-domain accumulator: channel tiles sum here before the single
/// inverse transform per output polynomial (Fig. 4(b)). Stride phases do
/// not: ConvRunner sums their decrypted *shares*, so a strided layer returns
/// one ciphertext per live phase, tile and output channel.
/// kPow2 accumulates coefficient-domain residues (each product is a full
/// negacyclic multiply; the "inverse transform" in finalize is a copy).
struct SpectralAccumulator {
  PolyMulBackend backend = PolyMulBackend::kNtt;
  std::vector<u64> ntt;
  std::vector<fft::cplx> fft;
  std::vector<u64> pow2;
  bool empty = true;
};

/// Operation counters for profiling (feeds the Fig. 1 breakdown and the
/// accelerator energy model). Plain value type: snapshots of the engine's
/// internal atomic tallies.
struct PolyMulCounters {
  std::uint64_t plain_transforms = 0;   // weight-side forward transforms
  std::uint64_t cipher_transforms = 0;  // ciphertext-side forward transforms
  std::uint64_t inverse_transforms = 0;
  std::uint64_t pointwise_products = 0;  // complex (or modular) point products
};

inline PolyMulCounters operator-(const PolyMulCounters& a, const PolyMulCounters& b) {
  return {a.plain_transforms - b.plain_transforms, a.cipher_transforms - b.cipher_transforms,
          a.inverse_transforms - b.inverse_transforms, a.pointwise_products - b.pointwise_products};
}

class PolyMulEngine {
 public:
  /// approx_config is required for kApproxFft and ignored otherwise.
  PolyMulEngine(const BfvContext& ctx, PolyMulBackend backend,
                std::optional<fft::FxpFftConfig> approx_config = std::nullopt);

  PolyMulBackend backend() const { return backend_; }
  /// Consistent snapshot of the cumulative tallies. Totals are exact even
  /// when many threads share one engine (relaxed atomics; no tally is lost).
  PolyMulCounters counters() const {
    return {counters_.plain_transforms.load(std::memory_order_relaxed),
            counters_.cipher_transforms.load(std::memory_order_relaxed),
            counters_.inverse_transforms.load(std::memory_order_relaxed),
            counters_.pointwise_products.load(std::memory_order_relaxed)};
  }
  void reset_counters() {
    counters_.plain_transforms.store(0, std::memory_order_relaxed);
    counters_.cipher_transforms.store(0, std::memory_order_relaxed);
    counters_.inverse_transforms.store(0, std::memory_order_relaxed);
    counters_.pointwise_products.store(0, std::memory_order_relaxed);
  }

  /// Transform a plaintext (weight) polynomial into the backend's spectral
  /// domain. Coefficients are lifted to signed representatives mod t. This
  /// is transform_plain_batch with one polynomial.
  PlainSpectrum transform_plain(const Plaintext& pt) const;

  /// Transform a batch of plaintext polynomials; out[b] is bit-identical to
  /// transform_plain(pts[b]). On kApproxFft the batch runs as FXP SoA lane
  /// groups (FxpNegacyclicTransform::forward_batch_into), so callers hand in
  /// simd_batch::active_group_lanes() polynomials at a time; the other
  /// backends loop the single-transform body. plain_transforms counts one
  /// per polynomial.
  ///
  /// `live` (kApproxFft only; the others ignore it) is the butterfly
  /// schedule of the polynomials' folded weight pattern: the FXP transform
  /// then runs skip mode, bit-identical to the dense one. Every polynomial
  /// must be zero outside the pattern (std::invalid_argument otherwise).
  std::vector<PlainSpectrum> transform_plain_batch(
      std::span<const Plaintext> pts, const fft::ButterflySchedule* live = nullptr) const;

  /// Transform a ciphertext polynomial once; reused across output channels.
  CipherSpectrum transform_cipher_spectrum(const Poly& ct_poly) const;

  /// accum += ct_spec * w (point-wise, in the spectral domain).
  void multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                           SpectralAccumulator& accum) const;

  /// One inverse transform: spectral accumulation back to a ring element.
  Poly finalize(const SpectralAccumulator& accum) const;

  /// finalize's FP inverse with rounding back to Z_q, public for spectra
  /// built outside the engine (the oracle's sparse-executor check).
  Poly inverse_to_poly(const std::vector<fft::cplx>& spec) const;

 private:
  /// Internal tallies are atomics so that transform methods — which are
  /// const and otherwise touch only immutable shared tables — stay safe to
  /// call from many threads at once (the seed code's plain mutable fields
  /// were a data race the moment two threads shared one engine).
  struct AtomicCounters {
    std::atomic<std::uint64_t> plain_transforms{0};
    std::atomic<std::uint64_t> cipher_transforms{0};
    std::atomic<std::uint64_t> inverse_transforms{0};
    std::atomic<std::uint64_t> pointwise_products{0};
  };

  const BfvContext& ctx_;
  PolyMulBackend backend_;
  std::shared_ptr<const fft::FxpNegacyclicTransform> approx_;  // process-wide cache
  std::optional<hemath::Pow2Ring> pow2_;                       // kPow2: k from params.q
  mutable AtomicCounters counters_;
};

}  // namespace flash::bfv
