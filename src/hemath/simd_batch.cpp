#include "hemath/simd_batch.hpp"

#include <algorithm>
#include <type_traits>

namespace flash::hemath::simd_batch {

void pack_soa(const u64* const* polys, std::size_t count, std::size_t n, std::size_t g,
              u64* buf) {
  for (std::size_t j = 0; j < n; ++j) {
    u64* row = buf + j * g;
    for (std::size_t l = 0; l < count; ++l) row[l] = polys[l][j];
    for (std::size_t l = count; l < g; ++l) row[l] = 0;
  }
}

void unpack_soa(const u64* buf, std::size_t n, std::size_t g, u64* const* polys,
                std::size_t count) {
  for (std::size_t j = 0; j < n; ++j) {
    const u64* row = buf + j * g;
    for (std::size_t l = 0; l < count; ++l) polys[l][j] = row[l];
  }
}

namespace {

// The scalar networks take the lane count as `Lanes`: a runtime std::size_t,
// or std::integral_constant<std::size_t, 1> for the single-polynomial NTT,
// whose constant lane loop compiles to a plain polynomial loop.
template <typename Lanes>
void forward_network(u64* buf, std::size_t n, Lanes g, const NttStageTables& tb) {
  const u64 q = tb.q;
  const u64 two_q = 2 * q;
  std::size_t t = n;
  for (std::size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const u64 w = tb.w[m + i];
      const u64 ws = tb.ws[m + i];
      u64* up = buf + 2 * i * t * g;
      u64* vp = up + t * g;
      for (std::size_t j = 0; j < t; ++j, up += g, vp += g) {
        for (std::size_t l = 0; l < g; ++l) {
          u64 u = up[l];
          if (u >= two_q) u -= two_q;
          const u64 v = shoup_mul_lazy(vp[l], w, ws, q);  // < 2q
          up[l] = u + v;              // < 4q, corrected lazily next visit
          vp[l] = u + two_q - v;      // < 4q
        }
      }
    }
  }
  for (std::size_t idx = 0; idx < n * g; ++idx) {
    u64 x = buf[idx];
    if (x >= two_q) x -= two_q;
    if (x >= q) x -= q;
    buf[idx] = x;
  }
}

template <typename Lanes>
void inverse_network(u64* buf, std::size_t n, Lanes g, const NttStageTables& tb) {
  const u64 q = tb.q;
  const u64 two_q = 2 * q;
  std::size_t t = 1;
  for (std::size_t m = n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    u64* up = buf;
    for (std::size_t i = 0; i < h; ++i) {
      const u64 w = tb.w[h + i];
      const u64 ws = tb.ws[h + i];
      u64* vp = up + t * g;
      for (std::size_t j = 0; j < t; ++j, up += g, vp += g) {
        for (std::size_t l = 0; l < g; ++l) {
          u64 u = up[l];
          u64 v = vp[l];
          if (u >= two_q) u -= two_q;
          if (v >= two_q) v -= two_q;
          up[l] = u + v;  // < 4q
          vp[l] = shoup_mul_lazy(u + two_q - v, w, ws, q);
        }
      }
      up = vp;  // next block starts where this one's odd half ended
    }
    t <<= 1;
  }
  for (std::size_t idx = 0; idx < n * g; ++idx) {
    const u64 x = buf[idx];
    u64 r = shoup_mul_lazy(x >= two_q ? x - two_q : x, tb.n_inv, tb.n_inv_shoup, q);
    if (r >= q) r -= q;
    buf[idx] = r;
  }
}

using OneLane = std::integral_constant<std::size_t, 1>;

}  // namespace

void ntt_forward_soa(u64* buf, std::size_t n, std::size_t g, const NttStageTables& tb) {
  if (g == 1) {
    forward_network(buf, n, OneLane{}, tb);
  } else {
    forward_network(buf, n, g, tb);
  }
}

void ntt_inverse_soa(u64* buf, std::size_t n, std::size_t g, const NttStageTables& tb) {
  if (g == 1) {
    inverse_network(buf, n, OneLane{}, tb);
  } else {
    inverse_network(buf, n, g, tb);
  }
}

namespace {

enum class Direction { kForward, kInverse };

void run_soa(u64* buf, std::size_t n, std::size_t g, const NttStageTables& tb, Direction dir) {
  if (g == kAvx512Lanes) {
    if (dir == Direction::kForward) {
      detail::ntt_forward_soa_avx512(buf, n, tb);
    } else {
      detail::ntt_inverse_soa_avx512(buf, n, tb);
    }
  } else if (g == kAvx2Lanes) {
    if (dir == Direction::kForward) {
      detail::ntt_forward_soa_avx2(buf, n, tb);
    } else {
      detail::ntt_inverse_soa_avx2(buf, n, tb);
    }
  } else if (dir == Direction::kForward) {
    ntt_forward_soa(buf, n, g, tb);
  } else {
    ntt_inverse_soa(buf, n, g, tb);
  }
}

void ntt_batch(std::span<u64* const> polys, std::size_t n, const NttStageTables& tb,
               core::ScratchArena* arena, Direction dir) {
  const std::size_t max_g = active_group_lanes();
  std::size_t done = 0;
  while (done < polys.size()) {
    const std::size_t remaining = polys.size() - done;
    if (remaining == 1 || max_g == 1) {
      // Single lane: run the scalar kernel in place — no pack/unpack copy.
      run_soa(polys[done], n, 1, tb, dir);
      ++done;
      continue;
    }
    // Remainder of 2..kAvx2Lanes at the AVX-512 level drops to the 4-lane
    // kernel; anything else zero-pads up to the group width.
    const std::size_t g = (max_g == kAvx512Lanes && remaining <= kAvx2Lanes) ? kAvx2Lanes : max_g;
    const std::size_t count = std::min(remaining, g);
    core::ScratchFrame frame(core::scratch_or_thread(arena));
    std::span<u64> buf = frame.alloc<u64>(n * g);
    pack_soa(polys.data() + done, count, n, g, buf.data());
    run_soa(buf.data(), n, g, tb, dir);
    unpack_soa(buf.data(), n, g, polys.data() + done, count);
    done += count;
  }
}

}  // namespace

void ntt_forward_batch(std::span<u64* const> polys, std::size_t n, const NttStageTables& tb,
                       core::ScratchArena* arena) {
  ntt_batch(polys, n, tb, arena, Direction::kForward);
}

void ntt_inverse_batch(std::span<u64* const> polys, std::size_t n, const NttStageTables& tb,
                       core::ScratchArena* arena) {
  ntt_batch(polys, n, tb, arena, Direction::kInverse);
}

}  // namespace flash::hemath::simd_batch
