#include "bfv/evaluator.hpp"

namespace flash::bfv {

void Evaluator::add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  ct.c0.add_inplace(ctx_.scaled_message(pt));
}

void Evaluator::sub_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  ct.c0.sub_inplace(ctx_.scaled_message(pt));
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
