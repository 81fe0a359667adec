// Negacyclic number-theoretic transform over Z_q[X]/(X^N+1).
//
// Implements the standard merged-ψ NTT: the forward transform is a
// Cooley-Tukey butterfly network with powers of the primitive 2N-th root ψ
// folded into the twiddle factors, producing the evaluation of the polynomial
// at the odd powers of ψ. The inverse is a Gentleman-Sande network with ψ^-1
// and a final scaling by N^-1. Pointwise multiplication in this domain equals
// negacyclic convolution, which is the PolyMul at the heart of BFV HConv.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scratch.hpp"
#include "hemath/modular.hpp"

namespace flash::hemath {

namespace simd_batch {
struct NttStageTables;
}

/// Precomputed tables for a fixed (q, N) pair. Construction cost is O(N);
/// reuse tables across transforms of the same ring.
class NttTables {
 public:
  /// q must be prime with q ≡ 1 (mod 2N); N a power of two.
  NttTables(u64 q, std::size_t n);

  u64 modulus() const { return q_; }
  std::size_t degree() const { return n_; }
  u64 psi() const { return psi_; }

  /// In-place forward negacyclic NTT. Input in standard order, output in
  /// bit-reversed order (matching the paper's Fig. 3 DIT dataflow). For
  /// q < 2^61 this runs the single-lane Shoup kernel of hemath/simd_batch;
  /// wider primes take a fully reducing 128-bit loop. Outputs are canonical
  /// residues either way.
  void forward(std::span<u64> a) const;
  void forward(std::vector<u64>& a) const { forward(std::span<u64>(a)); }

  /// In-place inverse: accepts bit-reversed order, returns standard order.
  void inverse(std::span<u64> a) const;
  void inverse(std::vector<u64>& a) const { inverse(std::span<u64>(a)); }

  /// Batched in-place transforms over same-ring polynomials (each pointer is
  /// n coefficients): one SoA butterfly stage sweeps the whole batch, so
  /// twiddles are loaded once per batch instead of once per polynomial.
  /// Outputs are bit-identical to a loop of forward()/inverse() calls at
  /// every SIMD level (enforced by tests/test_batch_transforms.cpp).
  /// Scratch comes from `arena` (nullptr → the calling thread's arena);
  /// steady state performs zero heap allocations. Falls back to the
  /// per-polynomial loop when q >= 2^61 (outside the Harvey lazy bound).
  void forward_batch_into(std::span<u64* const> polys,
                          core::ScratchArena* arena = nullptr) const;
  void inverse_batch_into(std::span<u64* const> polys,
                          core::ScratchArena* arena = nullptr) const;

  /// Pointwise product c[i] = a[i]*b[i] mod q (vectorized, hemath/pointwise).
  /// The span form writes into caller-sized storage and never allocates.
  void pointwise(std::span<const u64> a, std::span<const u64> b, std::span<u64> c) const;
  void pointwise(const std::vector<u64>& a, const std::vector<u64>& b,
                 std::vector<u64>& c) const {
    c.resize(n_);
    pointwise(std::span<const u64>(a), std::span<const u64>(b), std::span<u64>(c));
  }

 private:
  u64 q_;
  std::size_t n_;
  int log_n_;
  u64 psi_;       // primitive 2N-th root of unity
  u64 n_inv_;     // N^-1 mod q
  std::vector<u64> psi_br_;      // ψ^bitrev(i), forward twiddles
  std::vector<u64> psi_inv_br_;  // ψ^-bitrev(i), inverse twiddles
  // Shoup companions for the lazy kernels (hemath/simd_batch); populated
  // only when q < 2^61 (shoup_ok_).
  bool shoup_ok_ = false;
  u64 n_inv_shoup_ = 0;
  std::vector<u64> psi_br_shoup_;
  std::vector<u64> psi_inv_br_shoup_;

  /// Kernel views of the twiddle tables; valid only when shoup_ok_.
  simd_batch::NttStageTables forward_stages() const;
  simd_batch::NttStageTables inverse_stages() const;
};

/// Negacyclic polynomial multiplication via NTT: c = a*b mod (X^N+1, q).
/// Convenience wrapper; allocates. a and b must have size N.
std::vector<u64> negacyclic_multiply(const NttTables& tables,
                                     const std::vector<u64>& a,
                                     const std::vector<u64>& b);

/// Schoolbook negacyclic multiplication (O(N^2)); the correctness oracle.
std::vector<u64> negacyclic_multiply_schoolbook(u64 q, const std::vector<u64>& a,
                                                const std::vector<u64>& b);

}  // namespace flash::hemath
