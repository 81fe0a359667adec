// BFV key generation, encryption, decryption.
#pragma once

#include <span>

#include "bfv/context.hpp"

namespace flash::bfv {

class KeyGenerator {
 public:
  KeyGenerator(const BfvContext& ctx, hemath::Sampler& sampler) : ctx_(ctx), sampler_(sampler) {}

  SecretKey secret_key();
  PublicKey public_key(const SecretKey& sk);

 private:
  const BfvContext& ctx_;
  hemath::Sampler& sampler_;
};

/// Public key held in the NTT domain, the only form encryption takes. Every
/// encryption computes p0*u and p1*u; with the key spectra precomputed, it
/// costs one forward transform (of u) plus one batched inverse pair instead
/// of four forwards and two inverses. Pure function of the key, so a
/// long-lived party (the HConv client, a serving process) builds it once.
struct PreparedPublicKey {
  std::vector<u64> p0_ntt;  // forward NTT of pk.p0
  std::vector<u64> p1_ntt;  // forward NTT of pk.p1
};

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk);

class Encryptor {
 public:
  Encryptor(const BfvContext& ctx, hemath::Sampler& sampler) : ctx_(ctx), sampler_(sampler) {}

  /// Public-key encryption: ct = (p0*u + e1 + Delta*m, p1*u + e2), with u
  /// ternary and e1, e2 Gaussian, drawn from the sampler in that order.
  Ciphertext encrypt(const Plaintext& pt, const PreparedPublicKey& pk);

 private:
  const BfvContext& ctx_;
  hemath::Sampler& sampler_;
};

class Decryptor {
 public:
  /// Precomputes the secret key's NTT spectrum: every decrypt needs c1*s, so
  /// caching fwd(s) removes one of the two forward transforms per call.
  Decryptor(const BfvContext& ctx, SecretKey sk);

  /// round(t/q · (c0 + c1·s)) mod t, rounded exactly (half away from zero).
  Plaintext decrypt(const Ciphertext& ct) const;

  /// Batched decryption: the c1 forward transforms and the product inverse
  /// transforms run through the batched SoA NTT (hemath/ntt), loading each
  /// twiddle once per batch; working buffers come from the calling thread's
  /// scratch arena. Bit-identical to a loop of decrypt() calls. Callers that
  /// fan decryption over a pool hand each worker one SoA group
  /// (simd_batch::active_group_lanes() ciphertexts).
  std::vector<Plaintext> decrypt_batch(std::span<const Ciphertext> cts) const;

  /// Bits of noise budget remaining, SEAL-style: log2(q/2t) minus the log of
  /// the largest noise coefficient. <= 0 means decryption is unreliable.
  double invariant_noise_budget(const Ciphertext& ct) const;

 private:
  /// c0 + c1*s mod q.
  Poly noisy_scaled_message(const Ciphertext& ct) const;

  const BfvContext& ctx_;
  SecretKey sk_;
  std::vector<u64> s_ntt_;  // forward NTT of sk.s, shared by every decrypt
};

}  // namespace flash::bfv
