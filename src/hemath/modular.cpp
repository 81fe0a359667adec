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

}  // namespace flash::hemath
