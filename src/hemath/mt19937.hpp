// MT19937-64 with bulk fills: the words of std::mt19937_64, bit for bit,
// with the 312-word twist and the tempering run in SIMD lanes.
//
// The generator keeps one state array and one index. operator() tempers
// one word and fill() tempers a run of them, both reading the state at the
// shared index, so any interleaving of the two returns exactly the words a
// std::mt19937_64 with the same seed returns. The twist and the fill's
// tempering dispatch on the active SIMD level (hemath/simd.hpp): scalar,
// AVX2 (4 lanes) or AVX-512 (8 lanes), every level bit-identical to the
// scalar reference below.
//
// The twist runs in chunks of lanes, in index order. New x[k] reads the old
// x[k] and x[k + 1] and x[(k + 156) mod 312], and that last word is already
// new once k >= 156: chunks below 156 read it at k + 156, chunks above at
// k - 156, and an 8-lane chunk that straddles 156 takes its four old and
// four new words in one lane shift. The last chunk reads x[312], a copy of
// the new x[0] the twist writes before its upper half.
//
// Like std::mt19937_64 this is single-thread state: see the concurrency
// model in hemath/sampler.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hemath/modular.hpp"

namespace flash::hemath {

class Mt19937_64 {
 public:
  using result_type = u64;
  static constexpr std::size_t kStateSize = 312;
  static constexpr std::size_t kShift = 156;  // the recurrence's middle offset
  static constexpr u64 default_seed = 5489;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~u64{0}; }

  /// The standard's seeding: x[0] = seed and
  /// x[i] = 6364136223846793005 * (x[i-1] ^ (x[i-1] >> 62)) + i.
  explicit Mt19937_64(u64 seed = default_seed);

  result_type operator()() {
    if (index_ == kStateSize) twist();
    return temper(state_[index_++]);
  }

  /// The next out.size() words, in order: equal to out.size() calls of
  /// operator().
  void fill(std::span<u64> out);

  /// The standard's tempering of one state word.
  static u64 temper(u64 z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// Regenerates all 312 state words at the active SIMD level; resets the
  /// index.
  void twist();

  u64 state_[kStateSize + 1];  // x[0..312) plus the new x[0] (see above)
  std::size_t index_ = kStateSize;
};

namespace detail {

constexpr u64 kMtMatrixA = 0xb5026f5aa96619e9ULL;
constexpr u64 kMtUpperMask = ~u64{0} << 31;
constexpr u64 kMtLowerMask = ~kMtUpperMask;

/// One step of the recurrence: the new x[k] from the old x[k], the old
/// x[k + 1] and the word 156 places on (mod 312).
inline u64 mt_next(u64 xk, u64 xk1, u64 xm) {
  const u64 y = (xk & kMtUpperMask) | (xk1 & kMtLowerMask);
  return xm ^ (y >> 1) ^ ((u64{0} - (y & 1)) & kMtMatrixA);
}

/// The scalar twist over state[0..313): the reference the vector forms
/// equal.
void mt_twist_scalar(u64* state);

/// Vector forms of the twist and of tempering n words from `in` into `out`.
/// Callers check CPU support (hemath/simd.hpp); these TUs are built with
/// -mavx2 / -mavx512f.
void mt_twist_avx2(u64* state);
void mt_temper_avx2(const u64* in, u64* out, std::size_t n);
void mt_twist_avx512(u64* state);
void mt_temper_avx512(const u64* in, u64* out, std::size_t n);

}  // namespace detail

}  // namespace flash::hemath
