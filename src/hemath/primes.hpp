// Prime generation and primitive-root search for NTT-friendly moduli.
//
// The negacyclic NTT over Z_q[X]/(X^N+1) requires a prime q ≡ 1 (mod 2N) so
// that a primitive 2N-th root of unity ψ exists. These helpers find such
// primes at a requested bit size and compute the roots.
#pragma once

#include <cstdint>

#include "hemath/modular.hpp"

namespace flash::hemath {

/// Deterministic Miller-Rabin for 64-bit integers (fixed witness set that is
/// provably sufficient below 2^64).
bool is_prime(u64 n);

/// Smallest prime >= lo with prime ≡ 1 (mod step). Throws if none below 2^62.
u64 next_prime_congruent(u64 lo, u64 step);

/// Find a prime of exactly `bits` bits with q ≡ 1 (mod 2N), suitable as an
/// NTT modulus for ring degree N (N a power of two).
u64 find_ntt_prime(int bits, std::size_t n);

/// Smallest generator of Z_q^* for prime q.
u64 primitive_root(u64 q);

/// A primitive m-th root of unity mod prime q (requires m | q-1).
u64 root_of_unity(u64 q, u64 m);

}  // namespace flash::hemath
