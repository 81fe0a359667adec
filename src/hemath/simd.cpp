#include "hemath/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace flash::hemath::simd {

namespace {

bool detect_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool detect_avx512() {
#if defined(__x86_64__) || defined(_M_X64)
  // F gives the 512-bit registers and compare-to-mask forms; DQ gives the
  // native 64-bit mullo the batch kernels lean on.
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

SimdLevel detect_level() {
  return detail::resolve_level(std::getenv("FLASH_FORCE_SIMD_LEVEL"), max_supported_level());
}

std::atomic<SimdLevel>& level_slot() {
  static std::atomic<SimdLevel> level{detect_level()};
  return level;
}

}  // namespace

bool cpu_has_avx2() {
  static const bool has = detect_avx2();
  return has;
}

bool cpu_has_avx512() {
  static const bool has = detect_avx512();
  return has;
}

SimdLevel max_supported_level() {
  if (cpu_has_avx512()) return SimdLevel::kAvx512;
  if (cpu_has_avx2()) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

SimdLevel active_simd_level() { return level_slot().load(std::memory_order_relaxed); }

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

SimdLevel clamp_to_supported(SimdLevel level) {
  if (level == SimdLevel::kAvx512 && !cpu_has_avx512()) level = SimdLevel::kAvx2;
  if (level == SimdLevel::kAvx2 && !cpu_has_avx2()) level = SimdLevel::kScalar;
  return level;
}

namespace detail {

SimdLevel resolve_level(const char* force_level, SimdLevel max_supported) {
  if (force_level != nullptr && force_level[0] != '\0') {
    const std::optional<SimdLevel> parsed = parse_simd_level(force_level);
    if (!parsed.has_value()) {
      throw std::invalid_argument(std::string("FLASH_FORCE_SIMD_LEVEL: unknown level '") +
                                  force_level + "' (expected scalar, avx2 or avx512)");
    }
    // Degrade, never upgrade: forcing avx512 on an AVX2-only machine runs
    // the avx2 path, so the cross-level differential tier is runnable (and
    // meaningfully exercised) everywhere.
    return *parsed <= max_supported ? *parsed : max_supported;
  }
  return max_supported;
}

}  // namespace detail

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level) {
  prev_ = level_slot().exchange(clamp_to_supported(level), std::memory_order_relaxed);
}

ScopedSimdLevel::~ScopedSimdLevel() { level_slot().store(prev_, std::memory_order_relaxed); }

}  // namespace flash::hemath::simd
