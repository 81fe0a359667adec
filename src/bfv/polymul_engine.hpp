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
//
// multiply_accumulate_block is the one MAC body. It multiplies one or two
// ciphertext spectra (a ciphertext's c0 and c1) into the sums of a block of
// outputs; on the FP backends that is one pass of fft::spectral_mac_block,
// which reads each weight spectrum once for both components and each
// ciphertext chunk once for the whole block. The served round
// (HConvProtocol::run_round) keeps a block's sums in the thread's scratch
// arena (zeroed_sums) and finalizes them in place; the single-output calls
// are blocks of one over an owned SpectralAccumulator.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bfv/context.hpp"
#include "fft/fxp_fft.hpp"
#include "hemath/pow2.hpp"

namespace flash::core {
class ScratchFrame;
}  // namespace flash::core

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

/// Borrowed storage for a block of spectral sums, the accumulators of
/// multiply_accumulate_block: sum s holds n/2 complex values at fft[s] on
/// the FP backends, or n residues at words[s] on kNtt and kPow2 (the other
/// span is empty). PolyMulEngine::zeroed_sums carves one from a scratch
/// frame; the storage lives as long as that frame.
struct SpectralSums {
  std::span<fft::cplx* const> fft;
  std::span<u64* const> words;
  std::size_t size() const { return fft.empty() ? words.size() : fft.size(); }
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

  /// The body of transform_plain_batch, on polynomials already lifted:
  /// rows[b] holds n doubles, the signed representatives mod t of
  /// polynomial b's coefficients (what transform_plain_batch lifts a
  /// Plaintext to, e.g. from encoding::ConvEncoder::encode_weight_into).
  /// Fills out[b] (out.size() == rows.size()); the same batching, skip mode
  /// and counting as transform_plain_batch, whose spectra it reproduces bit
  /// for bit.
  void transform_signed_batch(std::span<const double* const> rows, std::span<PlainSpectrum> out,
                              const fft::ButterflySchedule* live = nullptr) const;

  /// Transform a ciphertext polynomial once; reused across output channels.
  CipherSpectrum transform_cipher_spectrum(const Poly& ct_poly) const;

  /// accum += ct_spec * w (point-wise, in the spectral domain): a block of
  /// one output and one component.
  void multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                           SpectralAccumulator& accum) const;

  /// The one MAC body: sums[c * w.size() + b] += ct[c] * w[b] for every
  /// component c (one or two) and output b. The FP backends run the fused
  /// kernel (fft::spectral_mac_block) once per call; kNtt runs
  /// pointwise_mulmod_accumulate and kPow2 its negacyclic product per
  /// (output, component). Backends are checked once per call
  /// (std::invalid_argument on a mismatch or a wrong number of sums), and
  /// pointwise_products rises by w.size() x ct.size() products.
  void multiply_accumulate_block(std::span<const CipherSpectrum* const> ct,
                                 std::span<const PlainSpectrum* const> w,
                                 const SpectralSums& sums) const;
  /// The same over owned accumulators, sized and zeroed on first use.
  void multiply_accumulate_block(std::span<const CipherSpectrum* const> ct,
                                 std::span<const PlainSpectrum* const> w,
                                 std::span<SpectralAccumulator* const> accs) const;

  /// `count` zeroed sums for multiply_accumulate_block, in `frame`.
  SpectralSums zeroed_sums(std::size_t count, core::ScratchFrame& frame) const;

  /// One inverse transform: spectral accumulation back to a ring element.
  Poly finalize(const SpectralAccumulator& accum) const;
  /// The same for sum s of a block.
  Poly finalize(const SpectralSums& sums, std::size_t s) const;

  /// finalize's FP inverse with rounding back to Z_q (fft::round_to_zq,
  /// eight lanes at a time at AVX-512), public for spectra built outside
  /// the engine (the oracle's sparse-executor check).
  Poly inverse_to_poly(std::span<const fft::cplx> spec) const;

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

  bool is_fp() const {
    return backend_ == PolyMulBackend::kFft || backend_ == PolyMulBackend::kApproxFft;
  }
  void check_backends(std::span<const CipherSpectrum* const> ct,
                      std::span<const PlainSpectrum* const> w) const;
  /// finalize on kNtt (inverse NTT) and kPow2 (a copy).
  Poly inverse_words(std::span<const u64> words) const;

  const BfvContext& ctx_;
  PolyMulBackend backend_;
  std::shared_ptr<const fft::FxpNegacyclicTransform> approx_;  // process-wide cache
  std::optional<hemath::Pow2Ring> pow2_;                       // kPow2: k from params.q
  mutable AtomicCounters counters_;
};

}  // namespace flash::bfv
