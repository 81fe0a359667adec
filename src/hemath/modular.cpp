#include "hemath/modular.hpp"

namespace flash::hemath {

u64 pow_mod(u64 a, u64 e, u64 q) {
  u64 result = 1 % q;
  a %= q;
  while (e > 0) {
    if (e & 1) result = mul_mod(result, a, q);
    a = mul_mod(a, a, q);
    e >>= 1;
  }
  return result;
}

u64 inv_mod(u64 a, u64 q) {
  // Extended Euclid on signed 128-bit to avoid overflow.
  __int128 t = 0, new_t = 1;
  __int128 r = q, new_r = a % q;
  while (new_r != 0) {
    __int128 quot = r / new_r;
    __int128 tmp = t - quot * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - quot * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (r != 1) throw std::invalid_argument("inv_mod: value not invertible");
  if (t < 0) t += q;
  return static_cast<u64>(t);
}

BarrettReducer::BarrettReducer(u64 modulus) : q_(modulus) {
  if (modulus < 2 || modulus >= (u64{1} << 62)) {
    throw std::invalid_argument("BarrettReducer: modulus must be in [2, 2^62)");
  }
  // mu = floor(2^128 / q). Since q does not divide 2^128 (unless q is a power
  // of two), floor((2^128 - 1)/q) equals it; correct the power-of-two case.
  u128 mu = (~u128{0}) / q_;
  if ((q_ & (q_ - 1)) == 0) mu += 1;
  mu_hi_ = static_cast<u64>(mu >> 64);
  mu_lo_ = static_cast<u64>(mu);
}

namespace {
/// High 128 bits of the 256-bit product of two 128-bit values given as
/// (hi, lo) word pairs. Standard four-partial-product schoolbook.
u128 mul_high_128(u64 xh, u64 xl, u64 yh, u64 yl) {
  u128 t0 = static_cast<u128>(xl) * yl;
  u128 t1 = static_cast<u128>(xh) * yl;
  u128 t2 = static_cast<u128>(xl) * yh;
  u128 t3 = static_cast<u128>(xh) * yh;
  u128 mid = (t0 >> 64) + static_cast<u64>(t1) + static_cast<u64>(t2);
  return t3 + (t1 >> 64) + (t2 >> 64) + (mid >> 64);
}
}  // namespace

u64 BarrettReducer::mul(u64 a, u64 b) const {
  u128 x = static_cast<u128>(a) * b;
  u128 quot = mul_high_128(static_cast<u64>(x >> 64), static_cast<u64>(x),
                           mu_hi_, mu_lo_);
  u128 r = x - quot * q_;
  // Quotient estimate is off by at most 2.
  while (r >= q_) r -= q_;
  return static_cast<u64>(r);
}

MontgomeryReducer::MontgomeryReducer(u64 modulus) : q_(modulus) {
  if (modulus < 3 || (modulus & 1) == 0 || modulus >= (u64{1} << 63)) {
    throw std::invalid_argument("MontgomeryReducer: modulus must be odd and < 2^63");
  }
  // Newton iteration for q^{-1} mod 2^64 (doubles valid bits each step).
  u64 inv = q_;
  for (int i = 0; i < 5; ++i) inv *= 2 - q_ * inv;
  qinv_neg_ = ~inv + 1;
  u64 r = (~u64{0}) % q_ + 1;  // 2^64 mod q (q < 2^63 so r < q always holds after %)
  if (r == q_) r = 0;
  r2_ = mul_mod(r, r, q_);  // 2^128 mod q
}

}  // namespace flash::hemath
