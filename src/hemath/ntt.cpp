#include "hemath/ntt.hpp"

#include <stdexcept>

#include "hemath/bitrev.hpp"
#include "hemath/pointwise.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd_batch.hpp"

namespace flash::hemath {

NttTables::NttTables(u64 q, std::size_t n) : q_(q), n_(n) {
  if (n < 2 || (n & (n - 1)) != 0) throw std::invalid_argument("NttTables: n must be a power of two >= 2");
  if ((q - 1) % (2 * n) != 0) throw std::invalid_argument("NttTables: q != 1 mod 2N");
  log_n_ = log2_exact(n);
  psi_ = root_of_unity(q, 2 * static_cast<u64>(n));
  n_inv_ = inv_mod(static_cast<u64>(n), q);

  psi_br_.resize(n);
  psi_inv_br_.resize(n);
  const u64 psi_inv = inv_mod(psi_, q);
  u64 p = 1, pi = 1;
  std::vector<u64> pow(n), pow_inv(n);
  for (std::size_t i = 0; i < n; ++i) {
    pow[i] = p;
    pow_inv[i] = pi;
    p = mul_mod(p, psi_, q);
    pi = mul_mod(pi, psi_inv, q);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = bit_reverse(static_cast<std::uint32_t>(i), log_n_);
    psi_br_[i] = pow[r];
    psi_inv_br_[i] = pow_inv[r];
  }

  // Shoup companions for the lazy SoA kernels (hemath/simd_batch), which run
  // every transform, single or batched. The lazy arithmetic needs headroom
  // (coefficients reach 4q), so only primes below 2^61 qualify; wider primes
  // take the fully reducing 128-bit loop.
  shoup_ok_ = q < (u64{1} << 61);
  if (shoup_ok_) {
    n_inv_shoup_ = shoup_companion(n_inv_, q);
    psi_br_shoup_.resize(n);
    psi_inv_br_shoup_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      psi_br_shoup_[i] = shoup_companion(psi_br_[i], q);
      psi_inv_br_shoup_[i] = shoup_companion(psi_inv_br_[i], q);
    }
  }
}

simd_batch::NttStageTables NttTables::forward_stages() const {
  return {psi_br_.data(), psi_br_shoup_.data(), 0, 0, q_};
}

simd_batch::NttStageTables NttTables::inverse_stages() const {
  return {psi_inv_br_.data(), psi_inv_br_shoup_.data(), n_inv_, n_inv_shoup_, q_};
}

void NttTables::forward(std::span<u64> a) const {
  if (a.size() != n_) throw std::invalid_argument("NttTables::forward: size mismatch");
  if (shoup_ok_) {
    simd_batch::ntt_forward_soa(a.data(), n_, 1, forward_stages());
    return;
  }
  // q >= 2^61: no headroom for the lazy kernel, reduce fully per butterfly.
  std::size_t t = n_;
  for (std::size_t m = 1; m < n_; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * t;
      const u64 s = psi_br_[m + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];
        const u64 v = mul_mod(a[j + t], s, q_);
        a[j] = add_mod(u, v, q_);
        a[j + t] = sub_mod(u, v, q_);
      }
    }
  }
}

void NttTables::inverse(std::span<u64> a) const {
  if (a.size() != n_) throw std::invalid_argument("NttTables::inverse: size mismatch");
  if (shoup_ok_) {
    simd_batch::ntt_inverse_soa(a.data(), n_, 1, inverse_stages());
    return;
  }
  std::size_t t = 1;
  for (std::size_t m = n_; m > 1; m >>= 1) {
    std::size_t j1 = 0;
    const std::size_t h = m >> 1;
    for (std::size_t i = 0; i < h; ++i) {
      const u64 s = psi_inv_br_[h + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];
        const u64 v = a[j + t];
        a[j] = add_mod(u, v, q_);
        a[j + t] = mul_mod(sub_mod(u, v, q_), s, q_);
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  for (auto& x : a) x = mul_mod(x, n_inv_, q_);
}

void NttTables::forward_batch_into(std::span<u64* const> polys,
                                   core::ScratchArena* arena) const {
  if (!shoup_ok_) {
    for (u64* p : polys) forward(std::span<u64>(p, n_));
    return;
  }
  simd_batch::ntt_forward_batch(polys, n_, forward_stages(), arena);
}

void NttTables::inverse_batch_into(std::span<u64* const> polys,
                                   core::ScratchArena* arena) const {
  if (!shoup_ok_) {
    for (u64* p : polys) inverse(std::span<u64>(p, n_));
    return;
  }
  simd_batch::ntt_inverse_batch(polys, n_, inverse_stages(), arena);
}

void NttTables::pointwise(std::span<const u64> a, std::span<const u64> b,
                          std::span<u64> c) const {
  if (a.size() != n_ || b.size() != n_ || c.size() != n_) {
    throw std::invalid_argument("NttTables::pointwise: size mismatch");
  }
  pointwise_mulmod(a.data(), b.data(), c.data(), n_, q_);
}

std::vector<u64> negacyclic_multiply(const NttTables& tables, const std::vector<u64>& a,
                                     const std::vector<u64>& b) {
  std::vector<u64> fa = a, fb = b, c;
  tables.forward(fa);
  tables.forward(fb);
  tables.pointwise(fa, fb, c);
  tables.inverse(c);
  return c;
}

std::vector<u64> negacyclic_multiply_schoolbook(u64 q, const std::vector<u64>& a,
                                                const std::vector<u64>& b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("negacyclic_multiply_schoolbook: size mismatch");
  std::vector<u64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (b[j] == 0) continue;
      const u64 prod = mul_mod(a[i], b[j], q);
      const std::size_t k = i + j;
      if (k < n) {
        c[k] = add_mod(c[k], prod, q);
      } else {
        c[k - n] = sub_mod(c[k - n], prod, q);  // X^N = -1
      }
    }
  }
  return c;
}

}  // namespace flash::hemath
