#include "hemath/primes.hpp"

#include <stdexcept>
#include <vector>

namespace flash::hemath {

namespace {
bool miller_rabin_witness(u64 n, u64 a, u64 d, int r) {
  u64 x = pow_mod(a % n, d, n);
  if (x == 1 || x == n - 1) return true;
  for (int i = 1; i < r; ++i) {
    x = mul_mod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}
}  // namespace

bool is_prime(u64 n) {
  if (n < 2) return false;
  for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  u64 d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic for all n < 2^64 (Sinclair 2011).
  for (u64 a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (!miller_rabin_witness(n, a, d, r)) return false;
  }
  return true;
}

u64 next_prime_congruent(u64 lo, u64 step) {
  if (step == 0) throw std::invalid_argument("next_prime_congruent: step == 0");
  u64 q = lo + ((lo % step == 1) ? 0 : (step + 1 - lo % step) % step);
  if (q < lo) throw std::overflow_error("next_prime_congruent: overflow");
  while (q < (u64{1} << 62)) {
    if (is_prime(q)) return q;
    q += step;
  }
  throw std::runtime_error("next_prime_congruent: no prime found below 2^62");
}

u64 find_ntt_prime(int bits, std::size_t n) {
  if (bits < 4 || bits > 61) throw std::invalid_argument("find_ntt_prime: bits out of range");
  if (n == 0 || (n & (n - 1)) != 0) throw std::invalid_argument("find_ntt_prime: n must be a power of two");
  const u64 step = 2 * static_cast<u64>(n);
  u64 q = next_prime_congruent(u64{1} << (bits - 1), step);
  if (q >= (u64{1} << bits)) throw std::runtime_error("find_ntt_prime: no prime at requested size");
  return q;
}

u64 primitive_root(u64 q) {
  if (!is_prime(q)) throw std::invalid_argument("primitive_root: q must be prime");
  // Factor q-1 by trial division (moduli here are NTT primes; q-1 has small
  // factors plus a large power of two, so this is fast in practice).
  u64 phi = q - 1;
  std::vector<u64> factors;
  u64 m = phi;
  for (u64 p = 2; p * p <= m; p += (p == 2 ? 1 : 2)) {
    if (m % p == 0) {
      factors.push_back(p);
      while (m % p == 0) m /= p;
    }
  }
  if (m > 1) factors.push_back(m);
  for (u64 g = 2; g < q; ++g) {
    bool ok = true;
    for (u64 p : factors) {
      if (pow_mod(g, phi / p, q) == 1) {
        ok = false;
        break;
      }
    }
    if (ok) return g;
  }
  throw std::runtime_error("primitive_root: not found");
}

u64 root_of_unity(u64 q, u64 m) {
  if ((q - 1) % m != 0) throw std::invalid_argument("root_of_unity: m does not divide q-1");
  u64 g = primitive_root(q);
  u64 w = pow_mod(g, (q - 1) / m, q);
  // w has order dividing m; the construction from a generator makes it exact.
  return w;
}

}  // namespace flash::hemath
