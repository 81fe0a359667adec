// BFV context: parameters plus the precomputed transform machinery shared by
// all operations on one parameter set (NTT tables for exact arithmetic, the
// N/2-point FFT for the paper's approximate path).
#pragma once

#include <memory>
#include <stdexcept>

#include "bfv/params.hpp"
#include "fft/negacyclic.hpp"
#include "hemath/ntt.hpp"
#include "hemath/poly.hpp"
#include "hemath/sampler.hpp"

namespace flash::bfv {

using hemath::Poly;

/// A plaintext is an element of R_t.
struct Plaintext {
  Poly poly;  // modulus t
};

/// A (degree-1) ciphertext: dec(ct) = round(t/q * (c0 + c1*s)) mod t.
struct Ciphertext {
  Poly c0;  // modulus q
  Poly c1;  // modulus q
};

struct SecretKey {
  Poly s;  // ternary, stored mod q
};

struct PublicKey {
  Poly p0;  // -(a*s + e) mod q
  Poly p1;  // a
};

class BfvContext {
 public:
  explicit BfvContext(BfvParams params);

  const BfvParams& params() const { return params_; }
  /// NTT tables for prime q. A power-of-two q has no NTT (Z_{2^k} lacks the
  /// roots of unity); those contexts serve the kPow2 engine path only, and
  /// reaching for the tables is a programming error.
  const hemath::NttTables& ntt() const {
    if (!ntt_) throw std::logic_error("BfvContext::ntt: no NTT tables exist for power-of-two q");
    return *ntt_;
  }
  const fft::NegacyclicFft& fft() const { return *fft_; }
  /// The one error sampler: the discrete Gaussian at params().error_sigma
  /// that key generation and encryption draw from, each through the
  /// caller's Sampler stream.
  const hemath::CdtGaussianSampler& error_sampler() const { return error_sampler_; }

  Plaintext make_plaintext() const { return {Poly(params_.t, params_.n)}; }
  Ciphertext make_ciphertext() const { return {Poly(params_.q, params_.n), Poly(params_.q, params_.n)}; }

  /// Delta times the centered lift of a coefficient m in [0, t), as an
  /// element of [0, q). With Delta = floor(q/t) and |lift| <= t/2,
  /// Delta * |lift| <= q/2, so no reduction is needed. A negative lift
  /// m - t gives q - Delta * (t - m) = Delta * m + q mod t, so the value is
  /// Delta * m plus q mod t when m > t/2, selected by a mask, not a branch:
  /// shares and masks are uniform in [0, t), so a branch on the sign would
  /// mispredict on half the coefficients. Loops over a row copy it, so its
  /// fields stay in registers while they store coefficients.
  struct MessageScale {
    u64 delta;    // floor(q / t)
    u64 q_mod_t;  // q - delta * t
    u64 half_t;   // t / 2
    u64 operator()(u64 m) const {
      return delta * m + (q_mod_t & (u64{0} - static_cast<u64>(m > half_t)));
    }
  };
  const MessageScale& message_scale() const { return scale_; }
  u64 scaled_coeff(u64 m) const { return scale_(m); }
  /// Delta * m lifted into R_q: the message term of encryption and of ct ⊞/⊟
  /// pt, one scaled_coeff per coefficient.
  Poly scaled_message(const Plaintext& pt) const;

  /// Encode a vector of signed cleartext values into plaintext coefficients
  /// (centered lift mod t). Values must fit in (-t/2, t/2].
  Plaintext encode_signed(const std::vector<i64>& values) const;

  /// Decode back to signed values.
  std::vector<i64> decode_signed(const Plaintext& pt) const;

 private:
  BfvParams params_;
  MessageScale scale_{};
  hemath::CdtGaussianSampler error_sampler_;
  // Shared process-wide (fft::transform_cache): contexts on the same (q, N)
  // reuse one set of immutable tables instead of recomputing them.
  std::shared_ptr<const hemath::NttTables> ntt_;
  std::shared_ptr<const fft::NegacyclicFft> fft_;
};

}  // namespace flash::bfv
