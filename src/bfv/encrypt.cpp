#include "bfv/encrypt.hpp"

#include <cmath>
#include <stdexcept>

#include "core/scratch.hpp"

namespace flash::bfv {

namespace {
/// Decryption's rounding, fused with the c0 addition and done in place:
/// vals[i] <- round(t/q · v) mod t for v = vals[i] + c0[i] mod q taken as
/// its centered representative, halves away from zero (llround's rule).
/// Exact for every (t, q) BfvParams admits, and free of division on the
/// fast path: a double estimate of round(t·|v|/q), then one exact-remainder
/// correction. The estimate is within one of the true rounding while
/// t < 2^50, and the remainder 2t|v| + q - 2q·est then lies in [-2q, 4q),
/// so for q < 2^61 it is exact in wrapping 64-bit arithmetic. Other
/// parameters divide in 128 bits.
void round_to_plaintext(const BfvParams& p, const u64* c0, u64* vals) {
  const u64 q = p.q;
  const u64 t = p.t;
  const u64 half_q = q / 2;
  if (t >= (u64{1} << 50) || q >= (u64{1} << 61)) {
    for (std::size_t i = 0; i < p.n; ++i) {
      const u64 v = hemath::add_mod(vals[i], c0[i], q);
      const u64 mag = v > half_q ? q - v : v;
      const u64 r = static_cast<u64>((2 * static_cast<hemath::u128>(t) * mag + q) /
                                     (2 * static_cast<hemath::u128>(q)));
      vals[i] = v > half_q && r != 0 ? t - r : r;
    }
    return;
  }
  const double scale = static_cast<double>(t) / static_cast<double>(q);
  const u64 two_t = 2 * t;
  const u64 two_q = 2 * q;
  for (std::size_t i = 0; i < p.n; ++i) {
    const u64 v = hemath::add_mod(vals[i], c0[i], q);
    const u64 mag = v > half_q ? q - v : v;
    u64 r = static_cast<u64>(static_cast<double>(mag) * scale + 0.5);
    // round(t·mag/q) is the unique r with 0 <= 2t·mag + q - 2q·r < 2q.
    const i64 rem = static_cast<i64>(two_t * mag + q - two_q * r);
    if (rem < 0) {
      --r;
    } else if (rem >= static_cast<i64>(two_q)) {
      ++r;
    }
    vals[i] = v > half_q && r != 0 ? t - r : r;
  }
}
}  // namespace

SecretKey KeyGenerator::secret_key() {
  return {sampler_.ternary_poly(ctx_.params().q, ctx_.params().n)};
}

PublicKey KeyGenerator::public_key(const SecretKey& sk) {
  const auto& p = ctx_.params();
  Poly a = sampler_.uniform_poly(p.q, p.n);
  Poly e = ctx_.error_sampler().sample_poly(p.q, p.n, sampler_.rng());
  Poly p0 = multiply(ctx_.ntt(), a, sk.s);
  p0.negate_inplace();
  p0.sub_inplace(e);
  return {std::move(p0), std::move(a)};
}

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk) {
  PreparedPublicKey out;
  out.p0_ntt = pk.p0.coeffs();
  out.p1_ntt = pk.p1.coeffs();
  ctx.ntt().forward(out.p0_ntt);
  ctx.ntt().forward(out.p1_ntt);
  return out;
}

void encrypt_batch(const BfvContext& ctx, const PreparedPublicKey& pk,
                   std::span<const u64* const> messages, std::span<hemath::Sampler> samplers,
                   std::span<Ciphertext> out) {
  const auto& p = ctx.params();
  const auto& ntt = ctx.ntt();
  const std::size_t k = messages.size();
  if (samplers.size() != k || out.size() != k) {
    throw std::invalid_argument("encrypt_batch: messages, samplers and outputs differ in count");
  }
  core::ScratchFrame frame(core::thread_scratch());
  // Row j of u and rows 2j, 2j + 1 of e hold ciphertext j's draws.
  std::span<u64> u = frame.alloc<u64>(k * p.n);
  std::span<u64> e = frame.alloc<u64>(2 * k * p.n);
  std::span<u64*> u_rows = frame.alloc<u64*>(k);
  std::span<u64*> prods = frame.alloc<u64*>(2 * k);
  for (std::size_t j = 0; j < k; ++j) {
    u_rows[j] = u.data() + j * p.n;
    samplers[j].ternary_into(p.q, u.subspan(j * p.n, p.n));
    ctx.error_sampler().sample_into(p.q, e.subspan(2 * j * p.n, p.n), samplers[j].rng());
    ctx.error_sampler().sample_into(p.q, e.subspan((2 * j + 1) * p.n, p.n), samplers[j].rng());
  }
  ntt.forward_batch_into(u_rows, &frame.arena());
  for (std::size_t j = 0; j < k; ++j) {
    for (Poly* c : {&out[j].c0, &out[j].c1}) {
      if (c->modulus() != p.q || c->degree() != p.n) *c = Poly(p.q, p.n);
    }
    const std::span<const u64> u_hat(u_rows[j], p.n);
    ntt.pointwise(std::span<const u64>(pk.p0_ntt), u_hat, std::span<u64>(out[j].c0.coeffs()));
    ntt.pointwise(std::span<const u64>(pk.p1_ntt), u_hat, std::span<u64>(out[j].c1.coeffs()));
    prods[2 * j] = out[j].c0.coeffs().data();
    prods[2 * j + 1] = out[j].c1.coeffs().data();
  }
  ntt.inverse_batch_into(prods, &frame.arena());
  for (std::size_t j = 0; j < k; ++j) {
    u64* c0 = prods[2 * j];
    u64* c1 = prods[2 * j + 1];
    const u64* e1 = e.data() + 2 * j * p.n;
    const u64* e2 = e1 + p.n;
    const u64* m = messages[j];
    for (std::size_t i = 0; i < p.n; ++i) {
      c0[i] = hemath::add_mod(hemath::add_mod(c0[i], e1[i], p.q), ctx.scaled_coeff(m[i]), p.q);
      c1[i] = hemath::add_mod(c1[i], e2[i], p.q);
    }
  }
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, const PreparedPublicKey& pk) {
  if (pt.poly.degree() != ctx_.params().n) {
    throw std::invalid_argument("Encryptor: plaintext degree mismatch");
  }
  Ciphertext ct;
  const u64* message = pt.poly.coeffs().data();
  encrypt_batch(ctx_, pk, std::span<const u64* const>(&message, 1),
                std::span<hemath::Sampler>(&sampler_, 1), std::span<Ciphertext>(&ct, 1));
  return ct;
}

Decryptor::Decryptor(const BfvContext& ctx, SecretKey sk) : ctx_(ctx), sk_(std::move(sk)) {
  s_ntt_ = sk_.s.coeffs();
  ctx_.ntt().forward(s_ntt_);
}

Poly Decryptor::noisy_scaled_message(const Ciphertext& ct) const {
  std::vector<u64> prod = ct.c1.coeffs();
  const auto& ntt = ctx_.ntt();
  ntt.forward(prod);
  ntt.pointwise(std::span<const u64>(prod), std::span<const u64>(s_ntt_), std::span<u64>(prod));
  ntt.inverse(prod);
  Poly v(ctx_.params().q, std::move(prod));
  v.add_inplace(ct.c0);
  return v;
}

Plaintext Decryptor::decrypt(const Ciphertext& ct) const {
  return std::move(decrypt_batch(std::span<const Ciphertext>(&ct, 1)).front());
}

std::vector<Plaintext> Decryptor::decrypt_batch(std::span<const Ciphertext> cts) const {
  const auto& p = ctx_.params();
  const auto& ntt = ctx_.ntt();
  const std::size_t count = cts.size();
  // Each output plaintext's storage first holds c1·s mod q, then is rounded
  // in place with c0 added: no buffer besides the outputs and the batched
  // transform's SoA scratch.
  std::vector<Plaintext> out;
  out.reserve(count);
  core::ScratchFrame frame(core::thread_scratch());
  std::span<u64*> prods = frame.alloc<u64*>(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (cts[i].c0.degree() != p.n || cts[i].c1.degree() != p.n) {
      throw std::invalid_argument("Decryptor: ciphertext degree mismatch");
    }
    out.push_back({Poly(p.t, cts[i].c1.coeffs())});
    prods[i] = out.back().poly.coeffs().data();
  }
  ntt.forward_batch_into(prods, &frame.arena());
  for (u64* prod : prods) {
    ntt.pointwise(std::span<const u64>(prod, p.n), std::span<const u64>(s_ntt_),
                  std::span<u64>(prod, p.n));
  }
  ntt.inverse_batch_into(prods, &frame.arena());
  for (std::size_t i = 0; i < count; ++i) {
    round_to_plaintext(p, cts[i].c0.coeffs().data(), prods[i]);
  }
  return out;
}

double Decryptor::invariant_noise_budget(const Ciphertext& ct) const {
  const auto& p = ctx_.params();
  const Poly v = noisy_scaled_message(ct);
  const Poly expect = ctx_.scaled_message(decrypt(ct));
  u64 max_noise = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    const u64 noise = hemath::sub_mod(v[i], expect[i], p.q);
    const i64 centered = hemath::to_signed(noise, p.q);
    const u64 mag = static_cast<u64>(centered < 0 ? -centered : centered);
    if (mag > max_noise) max_noise = mag;
  }
  const double ceiling = std::log2(static_cast<double>(p.q)) - std::log2(2.0 * static_cast<double>(p.t));
  const double level = std::log2(static_cast<double>(max_noise) + 1.0);
  return ceiling - level;
}

}  // namespace flash::bfv
