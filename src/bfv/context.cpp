#include "bfv/context.hpp"

#include <stdexcept>

#include "fft/transform_cache.hpp"

namespace flash::bfv {

BfvContext::BfvContext(BfvParams params)
    : params_(params), fft_(fft::shared_negacyclic_fft(params.n)) {
  params_.validate();
  delta_shoup_ = hemath::shoup_companion(params_.delta(), params_.q);
  // NttTables require a prime q = 1 mod 2N; a power-of-two q (kPow2 backend)
  // has no NTT, so the tables stay null and ntt() throws if reached.
  if (!params_.q_is_pow2()) ntt_ = fft::shared_ntt_tables(params_.q, params_.n);
}

Poly BfvContext::scaled_message(const Plaintext& pt) const {
  const u64 q = params_.q;
  const u64 delta = params_.delta();
  Poly out(q, params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) {
    const u64 lifted = hemath::from_signed(hemath::to_signed(pt.poly[i], params_.t), q);
    out[i] = hemath::shoup_mul(lifted, delta, delta_shoup_, q);
  }
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
