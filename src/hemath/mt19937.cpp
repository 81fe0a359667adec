#include "hemath/mt19937.hpp"

#include <algorithm>

#include "hemath/simd.hpp"

namespace flash::hemath {

namespace detail {

void mt_twist_scalar(u64* state) {
  constexpr std::size_t n = Mt19937_64::kStateSize;
  constexpr std::size_t m = Mt19937_64::kShift;
  for (std::size_t k = 0; k < m; ++k) state[k] = mt_next(state[k], state[k + 1], state[k + m]);
  state[n] = state[0];
  for (std::size_t k = m; k < n; ++k) state[k] = mt_next(state[k], state[k + 1], state[k - m]);
}

}  // namespace detail

Mt19937_64::Mt19937_64(u64 seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const u64 prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  state_[kStateSize] = 0;  // written by every twist before it is read
}

void Mt19937_64::twist() {
  if (simd::level_at_least(simd::SimdLevel::kAvx512)) {
    detail::mt_twist_avx512(state_);
  } else if (simd::level_at_least(simd::SimdLevel::kAvx2)) {
    detail::mt_twist_avx2(state_);
  } else {
    detail::mt_twist_scalar(state_);
  }
  index_ = 0;
}

void Mt19937_64::fill(std::span<u64> out) {
  const bool avx512 = simd::level_at_least(simd::SimdLevel::kAvx512);
  const bool avx2 = simd::level_at_least(simd::SimdLevel::kAvx2);
  std::size_t done = 0;
  while (done < out.size()) {
    if (index_ == kStateSize) twist();
    const std::size_t take = std::min(kStateSize - index_, out.size() - done);
    const u64* in = state_ + index_;
    u64* dst = out.data() + done;
    if (avx512) {
      detail::mt_temper_avx512(in, dst, take);
    } else if (avx2) {
      detail::mt_temper_avx2(in, dst, take);
    } else {
      for (std::size_t i = 0; i < take; ++i) dst[i] = temper(in[i]);
    }
    index_ += take;
    done += take;
  }
}

}  // namespace flash::hemath
