// Randomness for the HE layer: uniform ring elements, ternary secrets, and
// centered-binomial "discrete Gaussian-like" error, all from a seedable PRNG
// so every test and benchmark is reproducible.
//
// Concurrency model: a Sampler (and any bare std::mt19937_64) is single-
// thread state — sharing one across tasks is a data race AND destroys
// reproducibility, because interleaving reorders the draws. Parallel code
// must give every task its own stream via derive_stream_seed()/fork(): the
// derived seed depends only on (base seed, stream index), so a fixed seed
// yields the same per-task randomness no matter how many threads run or in
// what order tasks are scheduled.
#pragma once

#include <cstdint>
#include <random>

#include "hemath/poly.hpp"

namespace flash::hemath {

/// SplitMix64-style mix of a base seed and a stream index: statistically
/// independent, deterministic per (base, stream) pair. The standard way to
/// fan one seed out into per-task PRNG streams.
inline std::uint64_t derive_stream_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Sampler {
 public:
  explicit Sampler(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  /// Construction seed (not the evolving PRNG state); forks derive from it.
  std::uint64_t seed() const { return seed_; }

  /// Independent per-task sampler: deterministic in (this sampler's seed,
  /// stream), unaffected by how many draws this sampler has made.
  Sampler fork(std::uint64_t stream) const { return Sampler(derive_stream_seed(seed_, stream)); }

  /// Uniform element of Z_q.
  u64 uniform_mod(u64 q);

  /// Uniform polynomial in R_q.
  Poly uniform_poly(u64 q, std::size_t n);

  /// Ternary polynomial with coefficients in {-1, 0, 1} mod q (BFV secret key).
  Poly ternary_poly(u64 q, std::size_t n);

  /// Rounded continuous Gaussian with standard deviation sigma.
  Poly gaussian_poly(u64 q, std::size_t n, double sigma);

  std::mt19937_64& rng() { return rng_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Cumulative-distribution-table (CDT) discrete Gaussian sampler — the
/// table-based sampler production RLWE implementations use (constant-time
/// friendly, no floating point at sampling time). Probabilities are
/// tabulated once at construction up to a tail cut; each sample is one
/// uniform draw plus a table scan.
///
/// The object itself is immutable after construction and safe to share
/// across threads; all mutable state lives in the std::mt19937_64 the
/// caller passes in, which must be a per-thread / per-task stream (seed it
/// with derive_stream_seed) — handing several threads one shared rng is a
/// data race on the generator state.
class CdtGaussianSampler {
 public:
  explicit CdtGaussianSampler(double sigma, double tail_cut = 9.0);

  double sigma() const { return sigma_; }
  i64 max_magnitude() const { return static_cast<i64>(cdt_.size()) - 1; }

  /// One sample from the centered discrete Gaussian.
  i64 sample(std::mt19937_64& rng) const;

  /// A polynomial of samples lifted mod q.
  Poly sample_poly(u64 q, std::size_t n, std::mt19937_64& rng) const;

 private:
  double sigma_;
  // cdt_[k] = P(|X| <= k) scaled to 2^63 (half-distribution table; the sign
  // is a separate uniform bit, with k = 0 weighted half).
  std::vector<u64> cdt_;
};

}  // namespace flash::hemath
