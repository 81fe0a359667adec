// Runtime SIMD dispatch for the transform kernels.
//
// The vector kernels (AVX2 and AVX-512) are bit-identical to their scalar
// fallbacks — integer lanes compute the same shifts/adds, floating lanes the
// same IEEE mul/add sequence with contraction disabled — so selecting a
// level is purely a performance decision. The level is detected once at
// first use:
//   * FLASH_FORCE_SIMD_LEVEL={scalar,avx2,avx512} in the environment pins a
//     specific level (scalar for baseline measurements and debugging); any
//     other value throws (a typo must not silently change the datapath),
//     and a forced level the CPU lacks degrades to the best supported level
//     below it so the cross-level test tier runs on any machine;
//   * otherwise the highest level the CPU reports is used;
//   * ScopedSimdLevel overrides the level for the current process, used by
//     the differential tests and benches to compare the paths in one run.
//
// Dispatch sites read the level per call (a relaxed atomic load) through the
// level_at_least() predicate — direct active_simd_level() comparisons are
// rejected by flash_lint outside hemath/simd, because `== kAvx2` checks
// silently turned AVX2 kernels *off* when kAvx512 was added. Kernels live in
// *_avx2.cpp / *_avx512.cpp translation units compiled with the matching
// -m flags so the rest of the tree keeps the portable baseline ISA.
#pragma once

#include <optional>
#include <string_view>

namespace flash::hemath::simd {

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// True if the CPU this process runs on supports AVX2 (ignores the env
/// override).
bool cpu_has_avx2();

/// True if the CPU supports the AVX-512 subsets the kernels use (F + DQ).
bool cpu_has_avx512();

/// Highest level the CPU supports (ignores env overrides).
SimdLevel max_supported_level();

/// The level dispatch sites use. Detected once (env override included);
/// changed only by ScopedSimdLevel. Call sites outside hemath/simd must use
/// level_at_least() instead (enforced by flash_lint) — equality comparisons
/// against one level break when a higher level is introduced.
SimdLevel active_simd_level();

/// True when the active level is `min` or higher. The one level query
/// dispatch sites should use: an AVX2 kernel remains eligible at kAvx512.
inline bool level_at_least(SimdLevel min) {
  return static_cast<int>(active_simd_level()) >= static_cast<int>(min);
}

const char* simd_level_name(SimdLevel level);

/// Parse a FLASH_FORCE_SIMD_LEVEL value; nullopt when unrecognized.
std::optional<SimdLevel> parse_simd_level(std::string_view name);

/// Highest supported level that does not exceed `level`.
SimdLevel clamp_to_supported(SimdLevel level);

namespace detail {
/// Pure resolution of the detected level from the env override — unit
/// testable without mutating the process environment. `force_level` is the
/// raw FLASH_FORCE_SIMD_LEVEL value (null = unset). Throws
/// std::invalid_argument when it is not scalar/avx2/avx512.
SimdLevel resolve_level(const char* force_level, SimdLevel max_supported);
}  // namespace detail

/// Scoped override for tests/benches. Requesting a level the CPU lacks
/// keeps the best supported level below it (kAvx512 without AVX-512 support
/// degrades to kAvx2, then kScalar). Restores the previous level on
/// destruction. Not thread-safe against concurrent transform calls by
/// design: use only in single-threaded test/bench setup.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
  ~ScopedSimdLevel();

 private:
  SimdLevel prev_;
};

}  // namespace flash::hemath::simd
