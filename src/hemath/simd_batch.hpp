// SoA lane-batched NTT kernels: the one exact NTT for q < 2^61.
//
// The per-polynomial NTT pays its twiddle loads and stage bookkeeping once
// per polynomial. When the serving layer hands us B same-ring polynomials
// (one per ciphertext in a batch), a structure-of-arrays sweep pays them
// once per *batch*: the buffer interleaves the polynomials lane-wise
// (coefficient j of lane l lives at buf[j*G + l]), so one butterfly at
// positions (j, j+t) is two contiguous G-lane vector loads and the twiddle
// is broadcast once per (stage, block) instead of once per polynomial.
// With G = 1 the buffer is a plain polynomial, and that scalar kernel is
// what NttTables::forward/inverse run for a single polynomial.
//
// The kernels use Harvey's lazy-reduction form with Shoup companions
// (hemath::shoup_mul_lazy) and reduce to canonical residues at the end. A
// negacyclic NTT output is a residue vector mod q, so canonical outputs are
// representation-independent: every lane width at every SIMD level yields
// the residues a fully reducing loop would, which the cross-level
// differential tier asserts (batch vs single lane) and the schoolbook and
// direct-evaluation tests pin. NttTables keeps such a 128-bit loop only for
// q >= 2^61, outside the lazy kernels' headroom.
//
// Lane-group dispatch (documented in ARCHITECTURE.md §11):
//   * kAvx512 → groups of 8 lanes; a remainder of 2..4 drops to the 4-lane
//     AVX2 kernel, a remainder of 5..7 runs a zero-padded 8-lane group;
//   * kAvx2   → groups of 4 lanes, remainder of 2..3 zero-padded;
//   * a remainder of exactly 1 (or kScalar) runs the scalar kernel with
//     G = 1 in place — no pack/unpack copy at all.
// Zero padding is safe: a zero lane stays ≡ 0 (mod q) through every lazy
// stage and the final reduction makes it canonical 0; padded lanes are
// never unpacked.
#pragma once

#include <cstddef>
#include <span>

#include "core/scratch.hpp"
#include "hemath/modular.hpp"
#include "hemath/simd.hpp"

namespace flash::hemath::simd_batch {

inline constexpr std::size_t kAvx2Lanes = 4;
inline constexpr std::size_t kAvx512Lanes = 8;

/// Lanes per SoA group the batch driver uses at `level`.
inline constexpr std::size_t soa_group_lanes(simd::SimdLevel level) {
  switch (level) {
    case simd::SimdLevel::kAvx512: return kAvx512Lanes;
    case simd::SimdLevel::kAvx2: return kAvx2Lanes;
    case simd::SimdLevel::kScalar: break;
  }
  return 1;
}

/// soa_group_lanes at the active level: the group width callers use when
/// they split a batch into full SoA groups (e.g. to fan groups over a pool).
inline std::size_t active_group_lanes() { return soa_group_lanes(simd::active_simd_level()); }

/// Twiddle view for one transform direction. `w`/`ws` point at the
/// bit-reversed twiddle table and its Shoup companions (psi_br or
/// psi_inv_br); n_inv/n_inv_shoup are used by the inverse only.
struct NttStageTables {
  const u64* w = nullptr;
  const u64* ws = nullptr;
  u64 n_inv = 0;
  u64 n_inv_shoup = 0;
  u64 q = 0;
};

/// buf[j*g + l] = polys[l][j]; lanes l >= count are zero-filled.
void pack_soa(const u64* const* polys, std::size_t count, std::size_t n, std::size_t g, u64* buf);

/// polys[l][j] = buf[j*g + l] for l < count (padding lanes are dropped).
void unpack_soa(const u64* buf, std::size_t n, std::size_t g, u64* const* polys,
                std::size_t count);

/// Full forward negacyclic CT network over g SoA lanes; canonical outputs.
/// The scalar form is the differential reference for the vector kernels and
/// the in-place single-lane fallback (g = 1 makes buf a plain polynomial).
void ntt_forward_soa(u64* buf, std::size_t n, std::size_t g, const NttStageTables& tb);
/// Full inverse GS network (including the N^-1 scale) over g SoA lanes.
void ntt_inverse_soa(u64* buf, std::size_t n, std::size_t g, const NttStageTables& tb);

namespace detail {
/// Vector kernels; fixed lane counts (kAvx2Lanes / kAvx512Lanes). Callers
/// must have checked CPU support — these TUs are built with -mavx2/-mavx512.
void ntt_forward_soa_avx2(u64* buf, std::size_t n, const NttStageTables& tb);
void ntt_inverse_soa_avx2(u64* buf, std::size_t n, const NttStageTables& tb);
void ntt_forward_soa_avx512(u64* buf, std::size_t n, const NttStageTables& tb);
void ntt_inverse_soa_avx512(u64* buf, std::size_t n, const NttStageTables& tb);
}  // namespace detail

/// Batch drivers: group the polynomials per the dispatch matrix above,
/// pack → stage sweep → unpack through `arena` (nullptr → the calling
/// thread's arena; zero steady-state allocations). Each polys[i] is an
/// in-place transform of n coefficients. Requires q < 2^61 (the Harvey
/// bound the lazy kernels assume) — NttTables guards this before calling.
void ntt_forward_batch(std::span<u64* const> polys, std::size_t n, const NttStageTables& tb,
                       core::ScratchArena* arena = nullptr);
void ntt_inverse_batch(std::span<u64* const> polys, std::size_t n, const NttStageTables& tb,
                       core::ScratchArena* arena = nullptr);

}  // namespace flash::hemath::simd_batch
