// Modular arithmetic over 64-bit moduli.
//
// Everything the HE stack needs to compute in Z_q: 128-bit-intermediate
// multiplication, Shoup multiplication by a fixed operand, exponentiation
// and inverses. The served pointwise kernel carries its own Barrett
// reduction (hemath/pointwise); Table II's multiplier costs come from
// accel/unit_costs.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace flash::hemath {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;

/// (a + b) mod q, assuming a, b < q < 2^63.
inline u64 add_mod(u64 a, u64 b, u64 q) {
  u64 s = a + b;
  return s >= q ? s - q : s;
}

/// (a - b) mod q, assuming a, b < q.
inline u64 sub_mod(u64 a, u64 b, u64 q) { return a >= b ? a - b : a + q - b; }

/// (-a) mod q, assuming a < q.
inline u64 neg_mod(u64 a, u64 q) { return a == 0 ? 0 : q - a; }

/// (a * b) mod q via a 128-bit intermediate. Works for any q < 2^64.
/// Power-of-two moduli take the mask fast path: u64 multiplication wraps
/// exactly mod 2^64 and 2^k | 2^64, so (a * b) & (q - 1) is the same
/// residue the 128-bit remainder produces — without the soft division
/// (bit-identity pinned by test_modular's MulModPow2FastPathBitIdentity).
inline u64 mul_mod(u64 a, u64 b, u64 q) {
  if ((q & (q - 1)) == 0) return (a * b) & (q - 1);
  return static_cast<u64>((static_cast<u128>(a) * b) % q);
}

/// Shoup companion of a fixed multiplier w < q: floor(w * 2^64 / q).
inline u64 shoup_companion(u64 w, u64 q) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

/// x * w mod q given w's Shoup companion ws, for any x and q < 2^63: two
/// plain multiplies and a subtraction, result in [0, 2q).
inline u64 shoup_mul_lazy(u64 x, u64 w, u64 ws, u64 q) {
  const u64 hi = static_cast<u64>((static_cast<u128>(x) * ws) >> 64);
  return x * w - hi * q;  // wraps mod 2^64; lands in [0, 2q)
}

/// Fully reduced x * w mod q (shoup_mul_lazy plus one conditional subtract).
inline u64 shoup_mul(u64 x, u64 w, u64 ws, u64 q) {
  const u64 r = shoup_mul_lazy(x, w, ws, q);
  return r >= q ? r - q : r;
}

/// a^e mod q by square-and-multiply.
u64 pow_mod(u64 a, u64 e, u64 q);

/// Multiplicative inverse of a mod q (q need not be prime; requires gcd(a,q)=1).
/// Throws std::invalid_argument if the inverse does not exist.
u64 inv_mod(u64 a, u64 q);

/// Signed representative of a mod q in (-q/2, q/2], for a < q.
inline i64 to_signed(u64 a, u64 q) {
  return a > q / 2 ? static_cast<i64>(a) - static_cast<i64>(q) : static_cast<i64>(a);
}

/// Map a signed value back into [0, q), q < 2^63. The remainder is taken
/// only when |a| >= q; every lift of a centered residue skips it.
inline u64 from_signed(i64 a, u64 q) {
  const u64 mag = a < 0 ? u64{0} - static_cast<u64>(a) : static_cast<u64>(a);
  if (mag < q) return a < 0 ? q - mag : mag;
  const u64 r = mag % q;
  return a < 0 && r != 0 ? q - r : r;
}

}  // namespace flash::hemath
