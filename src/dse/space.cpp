#include "dse/space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hemath/bitrev.hpp"

namespace flash::dse {

DesignSpace::DesignSpace(std::size_t fft_size, SpaceBounds bounds)
    : m_(fft_size), stages_(hemath::log2_exact(fft_size)), bounds_(bounds) {
  if (bounds_.min_width < 4 || bounds_.max_width > 62 || bounds_.min_width > bounds_.max_width) {
    throw std::invalid_argument("DesignSpace: bad width bounds");
  }
  if (bounds_.min_k < 1 || bounds_.min_k > bounds_.max_k) {
    throw std::invalid_argument("DesignSpace: bad k bounds");
  }
}

DesignPoint DesignSpace::random(std::mt19937_64& rng) const {
  std::uniform_int_distribution<int> width(bounds_.min_width, bounds_.max_width);
  std::uniform_int_distribution<int> kdist(bounds_.min_k, bounds_.max_k);
  DesignPoint p;
  p.stage_widths.resize(static_cast<std::size_t>(stages_));
  for (auto& w : p.stage_widths) w = width(rng);
  p.twiddle_k = kdist(rng);
  return p;
}

DesignPoint DesignSpace::mutate(const DesignPoint& p, std::mt19937_64& rng) const {
  DesignPoint out = p;
  std::uniform_int_distribution<int> coord(0, stages_);  // stages_ selects k
  std::uniform_int_distribution<int> delta(-3, 3);
  const int mutations = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < mutations; ++i) {
    const int c = coord(rng);
    int d = delta(rng);
    if (d == 0) d = 1;
    if (c == stages_) {
      out.twiddle_k = std::clamp(out.twiddle_k + d, bounds_.min_k, bounds_.max_k);
    } else {
      auto& w = out.stage_widths[static_cast<std::size_t>(c)];
      w = std::clamp(w + d, bounds_.min_width, bounds_.max_width);
    }
  }
  return out;
}

DesignPoint DesignSpace::full_precision() const {
  DesignPoint p;
  p.stage_widths.assign(static_cast<std::size_t>(stages_), bounds_.max_width);
  p.twiddle_k = bounds_.max_k;
  return p;
}

int DesignSpace::int_bits(int stage, double input_max_abs) const {
  // |value| after stage s is bounded by input_max_abs * 2^s (each butterfly
  // at most doubles the magnitude; the twist keeps |.| unchanged).
  const double mag = std::max(input_max_abs, 1.0) * std::exp2(static_cast<double>(stage));
  return static_cast<int>(std::ceil(std::log2(mag + 1.0))) + 1;  // +1 sign
}

fft::FxpFftConfig DesignSpace::to_config(const DesignPoint& p, double input_max_abs) const {
  if (p.stage_widths.size() != static_cast<std::size_t>(stages_)) {
    throw std::invalid_argument("DesignSpace::to_config: point stage count mismatch");
  }
  fft::FxpFftConfig cfg;
  cfg.data_width = *std::max_element(p.stage_widths.begin(), p.stage_widths.end());
  cfg.twiddle_k = p.twiddle_k;
  cfg.twiddle_min_exp = -std::max(20, cfg.data_width - 4);
  cfg.stage_frac_bits.resize(static_cast<std::size_t>(stages_));
  cfg.input_frac_bits = std::max(0, p.stage_widths.front() - int_bits(0, input_max_abs));
  for (int s = 1; s <= stages_; ++s) {
    const int w = p.stage_widths[static_cast<std::size_t>(s - 1)];
    cfg.stage_frac_bits[static_cast<std::size_t>(s - 1)] = std::max(0, w - int_bits(s, input_max_abs));
  }
  return cfg;
}

}  // namespace flash::dse
