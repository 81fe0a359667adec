#include "fft/butterfly_schedule.hpp"

#include <numeric>
#include <stdexcept>

#include "hemath/bitrev.hpp"

namespace flash::fft {

ButterflySchedule::ButterflySchedule(std::size_t m, std::span<const std::size_t> live_inputs)
    : m_(m), live_mask_(m, 0) {
  const int log_m = hemath::log2_exact(m);
  for (std::size_t i : live_inputs) {
    if (i >= m) throw std::out_of_range("ButterflySchedule: live input out of range");
    live_mask_[i] = 1;
  }
  // Activity of the in-place work array, starting from the bit-reversed input.
  std::vector<std::uint8_t> active(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (live_mask_[i] == 0) continue;
    live_.push_back(static_cast<std::uint32_t>(i));
    active[hemath::bit_reverse(static_cast<std::uint32_t>(i), log_m)] = 1;
  }

  stage_begin_.push_back(0);
  for (int s = 1; s <= log_m; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::size_t len = half << 1;
    const std::size_t stride = m >> s;
    for (std::size_t block = 0; block < m; block += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const std::size_t iu = block + j;
        const std::size_t iv = iu + half;
        const bool au = active[iu] != 0;
        const bool av = active[iv] != 0;
        if (!au && !av) continue;  // dead butterfly: nothing scheduled
        ButterflyOp op;
        op.u = static_cast<std::uint32_t>(iu);
        op.v = static_cast<std::uint32_t>(iv);
        op.twiddle_index = static_cast<std::uint32_t>(j * stride);
        op.kind = au && av ? OpKind::kFull : (au ? OpKind::kCopy : OpKind::kMulOnly);
        ops_.push_back(op);
        active[iu] = 1;
        active[iv] = 1;
      }
    }
    stage_begin_.push_back(ops_.size());
  }
}

ButterflySchedule ButterflySchedule::full(std::size_t m) {
  std::vector<std::size_t> all(m);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return ButterflySchedule(m, all);
}

}  // namespace flash::fft
