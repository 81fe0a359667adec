// BFV key generation, encryption, decryption.
//
// Every secret and every error comes from the caller's Sampler stream: the
// secret key and encryption's u are ternary (Sampler::ternary_into, two
// bits per draw), and every error is drawn from the context's one CDT
// discrete Gaussian (BfvContext::error_sampler). Encryption runs in lane
// groups: encrypt_batch transforms a group's u's in one batched NTT and its
// key products in one batched inverse, with every temporary in the calling
// thread's scratch arena; Encryptor::encrypt is the batch of one.
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
/// costs one forward transform (of u) plus two inverses instead of four
/// forwards and two inverses. Pure function of the key, so a long-lived
/// party (the HConv client, a serving process) builds it once.
struct PreparedPublicKey {
  std::vector<u64> p0_ntt;  // forward NTT of pk.p0
  std::vector<u64> p1_ntt;  // forward NTT of pk.p1
};

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk);

/// Public-key encryption of a lane group: out[j] = (p0*u + e1 + Delta*m,
/// p1*u + e2) for message m = messages[j] (n coefficients in [0, t)), with
/// u ternary and e1, e2 from ctx.error_sampler(). Ciphertext j draws u, e1
/// and e2 from samplers[j] in that order and finishes before j + 1 starts,
/// so its bits depend on its own stream only: the batch equals a loop of
/// batches of one. The u's run one batched forward NTT and the 2k key
/// products one batched inverse, written straight into each output's c0 and
/// c1; Delta*m and the errors are added in one final pass. The u's and the
/// errors live in the calling thread's scratch arena, so after warm-up the
/// only heap blocks are the outputs' c0 and c1 (reused when out[j] already
/// holds ring elements of the right shape).
void encrypt_batch(const BfvContext& ctx, const PreparedPublicKey& pk,
                   std::span<const u64* const> messages, std::span<hemath::Sampler> samplers,
                   std::span<Ciphertext> out);

class Encryptor {
 public:
  Encryptor(const BfvContext& ctx, hemath::Sampler& sampler) : ctx_(ctx), sampler_(sampler) {}

  /// encrypt_batch of one, under the bound sampler.
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
