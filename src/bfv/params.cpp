#include "bfv/params.hpp"

#include <cmath>
#include <stdexcept>

#include "hemath/primes.hpp"

namespace flash::bfv {

double BfvParams::noise_ceiling_bits() const {
  return std::log2(static_cast<double>(q)) - std::log2(2.0 * static_cast<double>(t));
}

void BfvParams::validate() const {
  if (n < 8 || (n & (n - 1)) != 0) throw std::invalid_argument("BfvParams: n must be a power of two >= 8");
  if (t < 2) throw std::invalid_argument("BfvParams: t must be >= 2");
  if (q <= t * 2) throw std::invalid_argument("BfvParams: q must exceed 2t");
  if (q_is_pow2()) {
    // Z_{2^k} ring: reduction is a mask, so the NTT-prime congruence and
    // primality requirements do not apply. add_mod/sub_mod still assume
    // q < 2^63, hence k <= 62.
    if (q > (u64{1} << 62)) throw std::invalid_argument("BfvParams: power-of-two q must be <= 2^62");
    return;
  }
  if ((q - 1) % (2 * n) != 0) throw std::invalid_argument("BfvParams: q must be 1 mod 2N (NTT prime)");
  if (!hemath::is_prime(q)) throw std::invalid_argument("BfvParams: q must be prime");
}

BfvParams BfvParams::create(std::size_t n, int log_t, int log_q) {
  BfvParams p;
  p.n = n;
  p.t = u64{1} << log_t;
  p.q = hemath::find_ntt_prime(log_q, n);
  p.validate();
  return p;
}

BfvParams BfvParams::create_pow2(std::size_t n, int log_t, int k) {
  if (k < 2 || k > 62) throw std::invalid_argument("BfvParams::create_pow2: k must be in [2, 62]");
  BfvParams p;
  p.n = n;
  p.t = u64{1} << log_t;
  p.q = u64{1} << k;
  p.validate();
  return p;
}

double estimated_security_bits(std::size_t n, double log_q) {
  // HE-standard reference points (ternary secret, classical): at 128-bit
  // security the ceiling on log2(q) doubles with N. Security scales roughly
  // linearly in N / log2(q) for fixed sigma, so interpolate on that ratio.
  // Reference: N/log2(q) ~ 1024/27 = 37.9 at 128 bits.
  if (log_q <= 0.0 || n == 0) return 0.0;
  const double ratio = static_cast<double>(n) / log_q;
  return 128.0 * ratio / (1024.0 / 27.0);
}

}  // namespace flash::bfv
