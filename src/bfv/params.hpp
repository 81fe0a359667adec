// BFV encryption parameters (paper Section II-A).
//
// The hybrid HE/2PC protocol only needs the "degree-0" subset of BFV:
// encryption, ct +/- ct, ct +/- pt, ct x pt, decryption. Parameters follow
// the paper's notation: polynomial degree N, plaintext modulus t (set by the
// maximum sum-product bit-width of the quantized conv layer), ciphertext
// modulus q (set by the noise budget and security level).
#pragma once

#include <cstdint>

#include "hemath/modular.hpp"

namespace flash::bfv {

using hemath::i64;
using hemath::u64;

struct BfvParams {
  std::size_t n = 4096;       // ring degree, power of two
  u64 t = u64{1} << 20;       // plaintext modulus (power of two is fine for BFV)
  u64 q = 0;                  // ciphertext modulus: NTT prime q = 1 mod 2N,
                              // or 2^k for the mask-reduce kPow2 backend
  double error_sigma = 3.2;   // RLWE error standard deviation

  u64 delta() const { return q / t; }
  /// log2 of the decryption noise ceiling q/(2t).
  double noise_ceiling_bits() const;

  /// True for a power-of-two ciphertext modulus (the Z_{2^k} ring of the
  /// kPow2 backend): reduction is a mask and no NTT exists mod q.
  bool q_is_pow2() const { return q != 0 && (q & (q - 1)) == 0; }

  void validate() const;

  /// Cheetah-like parameter set: N, log2(t), log2(q) with q an NTT prime and
  /// t a power of two (the 2PC sharing modulus).
  static BfvParams create(std::size_t n, int log_t, int log_q);

  /// Jaguar-style power-of-two set: q = 2^k, t = 2^log_t. k <= 62 keeps q
  /// inside the add_mod headroom (q < 2^63); the ct x pt path runs on the
  /// kPow2 mask-reduce backend (there is no NTT mod 2^k).
  static BfvParams create_pow2(std::size_t n, int log_t, int k);
};

/// Estimated classical security of an RLWE instance with ternary secret,
/// from the HE-standard tables (interpolated): the maximum total log2(q) at
/// 128-bit security is ~{27, 54, 109, 218, 438} for N = {1024..16384}.
/// Returns an approximate security level in bits for the given (n, log2 q).
double estimated_security_bits(std::size_t n, double log_q);

}  // namespace flash::bfv
