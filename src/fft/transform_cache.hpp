// Process-wide shared transform tables.
//
// NTT twiddle tables, negacyclic FFT plans and fixed-point transform
// instances are pure functions of their parameters, immutable after
// construction, and O(N) to build — yet the seed code rebuilt them for
// every BfvContext / PolyMulEngine instance. These caches construct each
// distinct table once and hand out shared_ptrs; concurrent *use* of a
// cached table needs no locking (every transform method is const over
// immutable state).
//
// Locking design (ARCHITECTURE.md §8): one shard per table kind, each with
// its own mutex that guards only the key → entry map. Construction runs
// *outside* the shard lock through a per-entry std::once_flag, so a hit —
// on any key, in any shard — never blocks behind a concurrent miss's O(N)
// table build, and concurrent first-touches of the same key construct the
// table exactly once (losers of the call_once race wait for that entry
// only).
//
// Keys: (q, N) for NTT tables, N for the FP negacyclic plan, and
// (N, full FxpFftConfig) for the approximate transform — two engines with
// different stage widths or twiddle quantization must not share tables.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "fft/fxp_fft.hpp"
#include "fft/negacyclic.hpp"
#include "hemath/ntt.hpp"

namespace flash::fft {

std::shared_ptr<const hemath::NttTables> shared_ntt_tables(hemath::u64 q, std::size_t n);
std::shared_ptr<const NegacyclicFft> shared_negacyclic_fft(std::size_t n);
std::shared_ptr<const FxpNegacyclicTransform> shared_fxp_transform(std::size_t n,
                                                                   const FxpFftConfig& config);

/// The fixed-point cache's key: n and every field of the config. Exposed so
/// per-design-point memos elsewhere (the certifier's interval-analysis
/// verdicts, analysis/fxp_analyzer.hpp) key exactly as this cache does.
std::string fxp_config_key(std::size_t n, const FxpFftConfig& config);

/// Cache observability (tests assert construction happens once; the serve
/// metrics exporter publishes the per-kind counters so a serving process can
/// tell which table kind is churning).
struct TransformCacheStats {
  std::size_t ntt_entries = 0;
  std::size_t fft_entries = 0;
  std::size_t fxp_entries = 0;
  std::uint64_t hits = 0;    // sum of the per-kind hits
  std::uint64_t misses = 0;  // sum of the per-kind misses
  std::uint64_t ntt_hits = 0, ntt_misses = 0;
  std::uint64_t fft_hits = 0, fft_misses = 0;
  std::uint64_t fxp_hits = 0, fxp_misses = 0;
};
TransformCacheStats transform_cache_stats();

/// Drop every cached table (entries still referenced by live contexts stay
/// alive through their shared_ptrs). Intended for tests.
void clear_transform_caches();

namespace testing_hooks {
/// Test-only: invoked at the start of every cache-miss construction, outside
/// any shard lock, with the shard kind ("ntt" / "fft" / "fxp"). Lets the
/// convoy regression test stall a miss and prove hits still complete, and
/// count constructions. Install/remove only while no other thread touches
/// the caches. Pass nullptr to remove.
void set_transform_cache_make_hook(void (*hook)(const char* kind));
}  // namespace testing_hooks

}  // namespace flash::fft
