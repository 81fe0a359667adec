#include "bfv/encrypt.hpp"

#include <cmath>

namespace flash::bfv {

namespace {
/// Shared rounding of the noisy scaled message v: round(t/q * v) mod t.
Plaintext round_to_plaintext(const BfvContext& ctx, const Poly& v) {
  const auto& p = ctx.params();
  Plaintext pt = ctx.make_plaintext();
  const long double scale = static_cast<long double>(p.t) / static_cast<long double>(p.q);
  for (std::size_t i = 0; i < p.n; ++i) {
    const long double centered = static_cast<long double>(hemath::to_signed(v[i], p.q));
    const i64 rounded = static_cast<i64>(std::llroundl(centered * scale));
    pt.poly[i] = hemath::from_signed(rounded, p.t);
  }
  return pt;
}
}  // namespace

namespace {
/// Delta * m lifted into R_q.
Poly scaled_message(const BfvContext& ctx, const Plaintext& pt) {
  const auto& p = ctx.params();
  Poly out(p.q, p.n);
  const u64 delta = p.delta();
  for (std::size_t i = 0; i < p.n; ++i) {
    // Lift the (possibly signed) plaintext coefficient, then scale.
    const u64 lifted = hemath::from_signed(hemath::to_signed(pt.poly[i], p.t), p.q);
    out[i] = hemath::mul_mod(lifted, delta, p.q);
  }
  return out;
}
}  // namespace

SecretKey KeyGenerator::secret_key() {
  return {sampler_.ternary_poly(ctx_.params().q, ctx_.params().n)};
}

PublicKey KeyGenerator::public_key(const SecretKey& sk) {
  const auto& p = ctx_.params();
  Poly a = sampler_.uniform_poly(p.q, p.n);
  Poly e = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly p0 = multiply(ctx_.ntt(), a, sk.s);
  p0.negate_inplace();
  p0.sub_inplace(e);
  return {std::move(p0), std::move(a)};
}

Ciphertext Encryptor::encrypt_symmetric(const Plaintext& pt, const SecretKey& sk) {
  const auto& p = ctx_.params();
  Poly a = sampler_.uniform_poly(p.q, p.n);
  Poly e = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly c0 = scaled_message(ctx_, pt);
  c0.add_inplace(e);
  Poly as = multiply(ctx_.ntt(), a, sk.s);
  c0.sub_inplace(as);
  return {std::move(c0), std::move(a)};
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, const PublicKey& pk) {
  const auto& p = ctx_.params();
  Poly u = sampler_.ternary_poly(p.q, p.n);
  Poly e1 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly e2 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly c0 = multiply(ctx_.ntt(), pk.p0, u);
  c0.add_inplace(e1);
  c0.add_inplace(scaled_message(ctx_, pt));
  Poly c1 = multiply(ctx_.ntt(), pk.p1, u);
  c1.add_inplace(e2);
  return {std::move(c0), std::move(c1)};
}

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk) {
  PreparedPublicKey out;
  out.p0_ntt = pk.p0.coeffs();
  out.p1_ntt = pk.p1.coeffs();
  ctx.ntt().forward(out.p0_ntt);
  ctx.ntt().forward(out.p1_ntt);
  return out;
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, const PreparedPublicKey& pk) {
  const auto& p = ctx_.params();
  // Identical draw order to the PublicKey overload (u, e1, e2).
  Poly u = sampler_.ternary_poly(p.q, p.n);
  Poly e1 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly e2 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  // One forward of u shared by both key components; NTT residues are
  // canonical, so the products match multiply(ntt, pk.p_i, u) bit for bit.
  std::vector<u64> u_hat = u.coeffs();
  const auto& ntt = ctx_.ntt();
  ntt.forward(u_hat);
  std::vector<u64> c0v(p.n), c1v(p.n);
  ntt.pointwise(std::span<const u64>(pk.p0_ntt), std::span<const u64>(u_hat), std::span<u64>(c0v));
  ntt.pointwise(std::span<const u64>(pk.p1_ntt), std::span<const u64>(u_hat), std::span<u64>(c1v));
  u64* prods[] = {c0v.data(), c1v.data()};
  ntt.inverse_batch_into(prods);
  Poly c0(p.q, std::move(c0v));
  c0.add_inplace(e1);
  c0.add_inplace(scaled_message(ctx_, pt));
  Poly c1(p.q, std::move(c1v));
  c1.add_inplace(e2);
  return {std::move(c0), std::move(c1)};
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
  return round_to_plaintext(ctx_, noisy_scaled_message(ct));
}

std::vector<Plaintext> Decryptor::decrypt_batch(std::span<const Ciphertext> cts) const {
  const auto& p = ctx_.params();
  const auto& ntt = ctx_.ntt();
  const std::size_t count = cts.size();
  std::vector<std::vector<u64>> bufs(count);
  std::vector<u64*> ptrs(count);
  for (std::size_t i = 0; i < count; ++i) {
    bufs[i] = cts[i].c1.coeffs();
    ptrs[i] = bufs[i].data();
  }
  ntt.forward_batch_into(ptrs);
  for (std::size_t i = 0; i < count; ++i) {
    ntt.pointwise(std::span<const u64>(bufs[i]), std::span<const u64>(s_ntt_),
                  std::span<u64>(bufs[i]));
  }
  ntt.inverse_batch_into(ptrs);
  std::vector<Plaintext> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Poly v(p.q, std::move(bufs[i]));
    v.add_inplace(cts[i].c0);
    out.push_back(round_to_plaintext(ctx_, v));
  }
  return out;
}

double Decryptor::invariant_noise_budget(const Ciphertext& ct) const {
  const auto& p = ctx_.params();
  const Poly v = noisy_scaled_message(ct);
  const Plaintext m = decrypt(ct);
  const u64 delta = p.delta();
  u64 max_noise = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    const u64 lifted = hemath::from_signed(hemath::to_signed(m.poly[i], p.t), p.q);
    const u64 expect = hemath::mul_mod(lifted, delta, p.q);
    const u64 noise = hemath::sub_mod(v[i], expect, p.q);
    const i64 centered = hemath::to_signed(noise, p.q);
    const u64 mag = static_cast<u64>(centered < 0 ? -centered : centered);
    if (mag > max_noise) max_noise = mag;
  }
  const double ceiling = std::log2(static_cast<double>(p.q)) - std::log2(2.0 * static_cast<double>(p.t));
  const double level = std::log2(static_cast<double>(max_noise) + 1.0);
  return ceiling - level;
}

}  // namespace flash::bfv
