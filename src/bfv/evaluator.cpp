#include "bfv/evaluator.hpp"

#include <stdexcept>

namespace flash::bfv {

void Evaluator::fold_plain(Ciphertext& ct, std::span<const u64> m, bool subtract) const {
  const auto& p = ctx_.params();
  if (m.size() != p.n || ct.c0.degree() != p.n) {
    throw std::invalid_argument("Evaluator: plaintext row or ciphertext degree mismatch");
  }
  const BfvContext::MessageScale scale = ctx_.message_scale();
  const u64 q = p.q;
  const std::size_t n = p.n;
  u64* c0 = ct.c0.coeffs().data();
  for (std::size_t i = 0; i < n; ++i) {
    const u64 dm = scale(m[i]);
    c0[i] = subtract ? hemath::sub_mod(c0[i], dm, q) : hemath::add_mod(c0[i], dm, q);
  }
}

void Evaluator::add_plain_inplace(Ciphertext& ct, std::span<const u64> m) const {
  fold_plain(ct, m, false);
}

void Evaluator::sub_plain_inplace(Ciphertext& ct, std::span<const u64> m) const {
  fold_plain(ct, m, true);
}

Ciphertext Evaluator::multiply_plain(const Ciphertext& ct, const PlainSpectrum& w) const {
  CiphertextAccumulator accum;
  multiply_accumulate(transform_ciphertext(ct), w, accum);
  return finalize(accum);
}

Ciphertext Evaluator::multiply_plain(const Ciphertext& ct, const Plaintext& pt) const {
  return multiply_plain(ct, engine_.transform_plain(pt));
}

Evaluator::CiphertextSpectrum Evaluator::transform_ciphertext(const Ciphertext& ct) const {
  return {engine_.transform_cipher_spectrum(ct.c0), engine_.transform_cipher_spectrum(ct.c1)};
}

void Evaluator::multiply_accumulate(const CiphertextSpectrum& ct_spec, const PlainSpectrum& w,
                                    CiphertextAccumulator& accum) const {
  const CipherSpectrum* ct[] = {&ct_spec.c0, &ct_spec.c1};
  const PlainSpectrum* ws[] = {&w};
  SpectralAccumulator* accs[] = {&accum.c0, &accum.c1};
  engine_.multiply_accumulate_block(ct, ws, accs);
}

void Evaluator::multiply_accumulate(const CiphertextSpectrum& ct_spec,
                                    std::span<const PlainSpectrum* const> w,
                                    const SpectralSums& sums) const {
  const CipherSpectrum* ct[] = {&ct_spec.c0, &ct_spec.c1};
  engine_.multiply_accumulate_block(ct, w, sums);
}

Ciphertext Evaluator::finalize(const CiphertextAccumulator& accum) const {
  return {engine_.finalize(accum.c0), engine_.finalize(accum.c1)};
}

Ciphertext Evaluator::finalize(const SpectralSums& sums, std::size_t b) const {
  return {engine_.finalize(sums, b), engine_.finalize(sums, sums.size() / 2 + b)};
}

}  // namespace flash::bfv
