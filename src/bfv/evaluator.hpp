// Homomorphic evaluation: the degree-0 ⊞ / ⊟ / ⊠ operations of the hybrid
// protocol (ct ± pt, ct × pt). There is no ct ± ct, ct × ct,
// relinearization or key switching: the protocol never calls them.
#pragma once

#include "bfv/polymul_engine.hpp"

namespace flash::bfv {

class Evaluator {
 public:
  Evaluator(const BfvContext& ctx, PolyMulBackend backend,
            std::optional<fft::FxpFftConfig> approx_config = std::nullopt)
      : ctx_(ctx), engine_(ctx, backend, std::move(approx_config)) {}

  const PolyMulEngine& engine() const { return engine_; }
  PolyMulEngine& engine() { return engine_; }

  /// ct ⊞ pt: c0 += Delta * m, for the message row m (n coefficients in
  /// [0, t)), in one pass over c0 with no temporary.
  void add_plain_inplace(Ciphertext& ct, std::span<const u64> m) const;
  /// ct ⊟ pt: c0 -= Delta * m.
  void sub_plain_inplace(Ciphertext& ct, std::span<const u64> m) const;

  /// ct ⊠ pt: the one-shot form of the spectral pipeline below
  /// (transform_ciphertext -> multiply_accumulate -> finalize). The
  /// plaintext spectrum may be precomputed with transform_plain() and reused.
  Ciphertext multiply_plain(const Ciphertext& ct, const PlainSpectrum& w) const;
  Ciphertext multiply_plain(const Ciphertext& ct, const Plaintext& pt) const;

  PlainSpectrum transform_plain(const Plaintext& pt) const { return engine_.transform_plain(pt); }

  /// --- Spectral HConv pipeline (paper Fig. 4(b)) ---------------------------
  /// Transform a ciphertext once (both elements), point-wise multiply and
  /// accumulate any number of (ct, weight) pairs, and inverse-transform once
  /// per output ciphertext. This is the dataflow the accelerator implements:
  /// activation transforms are shared across output channels and channel
  /// tiles accumulate before the inverse.
  ///
  /// The served form is a block of outputs that share each ciphertext:
  /// multiply_accumulate(ct, w, sums) runs the engine's one MAC body over
  /// both components and every w[b] in one pass, so each weight spectrum is
  /// read once. `sums` holds 2 x w.size() sums — every output's c0 sum, then
  /// every output's c1 sum — e.g. engine().zeroed_sums(2 * w.size(), frame);
  /// finalize(sums, b) inverse-transforms output b. The single-output
  /// overloads are blocks of one over a CiphertextAccumulator.
  struct CiphertextSpectrum {
    CipherSpectrum c0, c1;
  };
  struct CiphertextAccumulator {
    SpectralAccumulator c0, c1;
  };
  CiphertextSpectrum transform_ciphertext(const Ciphertext& ct) const;
  void multiply_accumulate(const CiphertextSpectrum& ct_spec, const PlainSpectrum& w,
                           CiphertextAccumulator& accum) const;
  void multiply_accumulate(const CiphertextSpectrum& ct_spec,
                           std::span<const PlainSpectrum* const> w,
                           const SpectralSums& sums) const;
  Ciphertext finalize(const CiphertextAccumulator& accum) const;
  Ciphertext finalize(const SpectralSums& sums, std::size_t b) const;

 private:
  /// c0 += Delta * m, or c0 -= Delta * m when `subtract`.
  void fold_plain(Ciphertext& ct, std::span<const u64> m, bool subtract) const;

  const BfvContext& ctx_;
  mutable PolyMulEngine engine_;
};

}  // namespace flash::bfv
