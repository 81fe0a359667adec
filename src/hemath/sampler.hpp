// Randomness for the HE layer: uniform ring elements, ternary secrets and
// the discrete Gaussian error, all from a seedable PRNG so every test and
// benchmark is reproducible. There is one error sampler, the CDT below:
// BfvContext builds it from the parameters' sigma, and key generation and
// encryption draw from it through the caller's Sampler stream.
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
#include <span>

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

  /// Ternary polynomial with coefficients in {-1, 0, 1} mod q (the BFV
  /// secret key and encryption's u).
  Poly ternary_poly(u64 q, std::size_t n);
  /// The same draws written into `out`: each 64-bit draw is split into 32
  /// two-bit chunks, low bits first; a chunk c in {0, 1, 2} becomes c - 1
  /// and the value 3 is rejected. Exactly uniform on {-1, 0, 1}, at about
  /// n / 24 draws instead of one per coefficient. Bits left in the last
  /// draw are discarded.
  void ternary_into(u64 q, std::span<u64> out);

  std::mt19937_64& rng() { return rng_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 rng_;
};

/// Cumulative-distribution-table (CDT) discrete Gaussian sampler — the
/// table-based sampler production RLWE implementations use (no floating
/// point at sampling time). Probabilities are tabulated once at
/// construction up to a tail cut. A sample is one 64-bit draw w: its
/// magnitude is the number of table entries <= w >> 1, negated when the low
/// bit of w is set (a magnitude of 0 stays 0). The variance is sigma^2 up to
/// the tail cut and the table's 2^-63 quantization, which is what the
/// noise certifier models.
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
  /// The table: entry k is P(|X| <= k) scaled to 2^63, with k = 0 weighted
  /// half (the sign is a separate bit). Nondecreasing; the last entry is
  /// exactly 2^63.
  const std::vector<u64>& table() const { return cdt_; }

  /// One sample from the centered discrete Gaussian: sample(rng()).
  i64 sample(std::mt19937_64& rng) const { return sample(rng()); }
  /// The sample one draw maps to, by binary search over the table: the
  /// scalar reference the vectorized mapping must equal.
  i64 sample(u64 word) const;

  /// Replaces every draw words[i] by sample(words[i]) lifted mod q. Counts
  /// the table entries at or below each draw in vector lanes (scalar, AVX2
  /// or AVX-512 by the active SIMD level); every level is bit-identical to
  /// the reference.
  void map_words(u64 q, std::span<u64> words) const;

  /// out.size() draws from rng in coefficient order, then map_words: equal
  /// to a loop of sample(rng) lifted mod q.
  void sample_into(u64 q, std::span<u64> out, std::mt19937_64& rng) const;

  /// A polynomial of samples lifted mod q (sample_into).
  Poly sample_poly(u64 q, std::size_t n, std::mt19937_64& rng) const;

 private:
  double sigma_;
  std::vector<u64> cdt_;  // table()
  // Entries below 2^63: a shifted draw is below 2^63, so no later entry can
  // count, and signed 64-bit compares order these entries correctly.
  std::size_t live_ = 0;
};

namespace detail {
/// One draw of CdtGaussianSampler::map_words over table[0..len), every entry
/// below 2^63: the count of entries <= w >> 1, lifted mod q and negated when
/// the low bit of w is set. The table is sorted, so the count is the index
/// the reference binary search stops at.
inline u64 cdt_map_word(const u64* table, std::size_t len, u64 q, u64 w) {
  const u64 u = w >> 1;
  u64 magnitude = 0;
  for (std::size_t k = 0; k < len; ++k) magnitude += table[k] <= u ? 1 : 0;
  return (w & 1) != 0 && magnitude != 0 ? q - magnitude : magnitude;
}

/// Vector forms of the same mapping over n draws in place; the tails run
/// cdt_map_word. Callers check CPU support (hemath/simd.hpp); these TUs are
/// built with -mavx2 / -mavx512f.
void cdt_map_avx2(const u64* table, std::size_t len, u64 q, u64* words, std::size_t n);
void cdt_map_avx512(const u64* table, std::size_t len, u64 q, u64* words, std::size_t n);
}  // namespace detail

}  // namespace flash::hemath
