#include "bfv/context.hpp"

#include <stdexcept>

#include "fft/transform_cache.hpp"

namespace flash::bfv {

namespace {
/// Validates before any member is built from the parameters.
const BfvParams& validated(const BfvParams& params) {
  params.validate();
  return params;
}
}  // namespace

BfvContext::BfvContext(BfvParams params)
    : params_(validated(params)),
      error_sampler_(params.error_sigma),
      fft_(fft::shared_negacyclic_fft(params.n)) {
  delta_ = params_.delta();
  delta_shoup_ = hemath::shoup_companion(delta_, params_.q);
  // NttTables require a prime q = 1 mod 2N; a power-of-two q (kPow2 backend)
  // has no NTT, so the tables stay null and ntt() throws if reached.
  if (!params_.q_is_pow2()) ntt_ = fft::shared_ntt_tables(params_.q, params_.n);
}

Poly BfvContext::scaled_message(const Plaintext& pt) const {
  Poly out(params_.q, params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) out[i] = scaled_coeff(pt.poly[i]);
  return out;
}

Plaintext BfvContext::encode_signed(const std::vector<i64>& values) const {
  if (values.size() > params_.n) throw std::invalid_argument("encode_signed: too many values");
  Plaintext pt = make_plaintext();
  const i64 half = static_cast<i64>(params_.t / 2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > half || values[i] < -half) {
      throw std::out_of_range("encode_signed: value exceeds plaintext modulus range");
    }
    pt.poly[i] = hemath::from_signed(values[i], params_.t);
  }
  return pt;
}

std::vector<i64> BfvContext::decode_signed(const Plaintext& pt) const {
  std::vector<i64> out(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    out[i] = hemath::to_signed(pt.poly[i], params_.t);
  }
  return out;
}

}  // namespace flash::bfv
