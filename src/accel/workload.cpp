#include "accel/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "hemath/bitrev.hpp"

namespace flash::accel {

TransformWorkload TransformWorkload::from_tiling(const encoding::LayerTiling& tiling,
                                                 double weight_mult_fraction) {
  TransformWorkload w;
  w.n = tiling.n;
  w.weight_transforms = tiling.weight_transforms;
  w.cipher_transforms = tiling.cipher_transforms;
  w.inverse_transforms = tiling.inverse_transforms;
  w.pointwise_polys = tiling.pointwise_polys;
  w.weight_mult_fraction = weight_mult_fraction;
  return w;
}

TransformWorkload TransformWorkload::from_network(const std::vector<tensor::LayerConfig>& layers,
                                                  std::size_t n, double weight_mult_fraction) {
  TransformWorkload w;
  w.n = n;
  w.weight_mult_fraction = weight_mult_fraction;
  for (const auto& layer : layers) {
    const encoding::LayerTiling t = encoding::plan_layer(layer, n);
    w.weight_transforms += t.weight_transforms;
    w.cipher_transforms += t.cipher_transforms;
    w.inverse_transforms += t.inverse_transforms;
    w.pointwise_polys += t.pointwise_polys;
  }
  return w;
}

TransformWorkload& TransformWorkload::operator+=(const TransformWorkload& other) {
  if (n != other.n) throw std::invalid_argument("TransformWorkload: mixed ring degrees");
  // Weight fractions combine weighted by weight-transform count.
  const double total = static_cast<double>(weight_transforms + other.weight_transforms);
  if (total > 0) {
    weight_mult_fraction =
        (weight_mult_fraction * static_cast<double>(weight_transforms) +
         other.weight_mult_fraction * static_cast<double>(other.weight_transforms)) /
        total;
  }
  weight_transforms += other.weight_transforms;
  cipher_transforms += other.cipher_transforms;
  inverse_transforms += other.inverse_transforms;
  pointwise_polys += other.pointwise_polys;
  return *this;
}

std::uint64_t dense_fft_butterflies(std::size_t n) {
  const std::size_t m = n / 2;
  return static_cast<std::uint64_t>(m / 2) * static_cast<std::uint64_t>(hemath::log2_exact(m));
}

std::uint64_t dense_ntt_butterflies(std::size_t n) {
  return static_cast<std::uint64_t>(n / 2) * static_cast<std::uint64_t>(hemath::log2_exact(n));
}

sparsefft::PlanCost radix4_dense_cost(std::size_t m) {
  sparsefft::PlanCost c;
  const int log_m = hemath::log2_exact(m);
  for (int s = 0; s + 2 <= log_m; s += 2) {
    const std::size_t size = m >> s;
    const std::size_t blocks = std::size_t{1} << s;
    for (std::size_t k = 0; k < size / 4; ++k) {
      for (std::size_t r = 1; r < 4; ++r) {
        // Twiddle W_size^(r * k) is a power of i iff 4 * r * k = 0 mod size.
        ((4 * r * k) % size == 0 ? c.trivial_mults : c.complex_mults) += blocks;
      }
    }
    c.complex_adds += 3 * m;
  }
  if (log_m % 2 == 1) {
    c.trivial_mults += m / 2;
    c.complex_adds += m;
  }
  return c;
}

namespace {

UnitCost weight_bu_cost(const FlashConfig& config, WeightPath path) {
  switch (path) {
    case WeightPath::kFpDense:
    case WeightPath::kFpSparse:
      return fp_bu(config.fp_mantissa);
    case WeightPath::kFxpDense:
      return plain_fxp_bu(27);
    case WeightPath::kApproxDense:
    case WeightPath::kApproxSparse:
      return approx_bu(config.approx_width, config.twiddle_k);
  }
  throw std::logic_error("weight_bu_cost: unreachable");
}

bool is_sparse(WeightPath path) {
  return path == WeightPath::kFpSparse || path == WeightPath::kApproxSparse;
}

}  // namespace

double weight_transform_energy_j(const FlashConfig& config, const TransformWorkload& w,
                                 WeightPath path) {
  const double frac = is_sparse(path) ? w.weight_mult_fraction : 1.0;
  const double butterflies =
      static_cast<double>(w.weight_transforms) * static_cast<double>(dense_fft_butterflies(w.n)) * frac;
  const UnitCost bu = weight_bu_cost(config, path);
  return butterflies * bu.energy_pj(config.freq_hz) * 1e-12;
}

FlashRunBreakdown flash_run_breakdown(const FlashConfig& config, const TransformWorkload& w,
                                      WeightPath path) {
  const double frac = is_sparse(path) ? w.weight_mult_fraction : 1.0;
  const double bflies_per_fft = static_cast<double>(dense_fft_butterflies(w.n));
  FlashRunBreakdown b;

  // Approximate array: sparse weight forwards plus dense inverse transforms
  // (inverse inputs are dense spectra; the FXP arithmetic tolerance is the
  // same kernel-level robustness argument).
  const double weight_ops = static_cast<double>(w.weight_transforms) * bflies_per_fft * frac +
                            static_cast<double>(w.inverse_transforms) * bflies_per_fft;
  const std::size_t weight_units = config.total_approx_bus();
  if (weight_ops > 0 && weight_units == 0) throw std::invalid_argument("flash_run: no weight BUs");
  b.weight_array_s =
      weight_units ? weight_ops / (static_cast<double>(weight_units) * config.freq_hz) : 0.0;
  b.weight_array_j = weight_ops * weight_bu_cost(config, path).energy_pj(config.freq_hz) * 1e-12;

  // FP transform array: ciphertext forward transforms.
  const double fp_ops = static_cast<double>(w.cipher_transforms) * bflies_per_fft;
  const std::size_t fp_units = config.total_fp_bus();
  if (fp_ops > 0 && fp_units == 0) throw std::invalid_argument("flash_run: no FP BUs");
  b.fp_array_s = fp_units ? fp_ops / (static_cast<double>(fp_units) * config.freq_hz) : 0.0;
  b.fp_array_j = fp_ops * fp_bu(config.fp_mantissa).energy_pj(config.freq_hz) * 1e-12;

  // Point-wise multiply + accumulate array.
  const double pw_ops = static_cast<double>(w.pointwise_polys) * static_cast<double>(w.n / 2);
  if (pw_ops > 0 && config.fp_mult_units == 0) throw std::invalid_argument("flash_run: no FP MULs");
  b.pointwise_s =
      config.fp_mult_units ? pw_ops / (static_cast<double>(config.fp_mult_units) * config.freq_hz) : 0.0;
  b.pointwise_j = pw_ops *
                  (complex_fp_mult(config.fp_mantissa).energy_pj(config.freq_hz) +
                   fp_accumulator(config.fp_mantissa).energy_pj(config.freq_hz)) *
                  1e-12;
  return b;
}

LatencyEnergy flash_run(const FlashConfig& config, const TransformWorkload& w, WeightPath path) {
  const FlashRunBreakdown b = flash_run_breakdown(config, w, path);
  return {b.seconds(), b.joules()};
}

LatencyEnergy cham_run(const TransformWorkload& w) {
  constexpr double kFreq = 300e6;
  constexpr std::size_t kBus = 240;
  const double transform_ops =
      static_cast<double>(w.weight_transforms + w.cipher_transforms + w.inverse_transforms) *
      static_cast<double>(dense_ntt_butterflies(w.n));
  const double pw_ops = static_cast<double>(w.pointwise_polys) * static_cast<double>(w.n);
  const double total_ops = transform_ops + pw_ops;  // shared modular multipliers
  LatencyEnergy out;
  out.seconds = total_ops / (static_cast<double>(kBus) * kFreq);
  out.joules = total_ops * modular_bu_cham().energy_pj(kFreq) * 1e-12;
  return out;
}

LatencyEnergy f1_run(const TransformWorkload& w) {
  // Published Table III figures: 583.33 M normalized NTT/s at 76.80 W.
  constexpr double kNormThroughput = 583.33e6;
  constexpr double kPower = 76.80;
  const double transforms =
      static_cast<double>(w.weight_transforms + w.cipher_transforms + w.inverse_transforms);
  // Point-wise modular products on the same datapath, expressed in
  // NTT-equivalents (n multiplications vs (n/2)log2(n) per transform).
  const double pw_equiv = static_cast<double>(w.pointwise_polys) * static_cast<double>(w.n) /
                          static_cast<double>(dense_ntt_butterflies(w.n));
  // Normalize our ring degree to the N=4096 NTT reference.
  const double scale = static_cast<double>(dense_ntt_butterflies(w.n)) /
                       static_cast<double>(dense_ntt_butterflies(4096));
  LatencyEnergy out;
  out.seconds = (transforms + pw_equiv) * scale / kNormThroughput;
  out.joules = out.seconds * kPower;
  return out;
}

double flash_norm_throughput(const FlashConfig& config, double weight_mult_fraction,
                             bool weight_only) {
  const double bflies = static_cast<double>(dense_fft_butterflies(4096));  // FFT size 2048 reference
  const double weight_rate = static_cast<double>(config.total_approx_bus()) * config.freq_hz /
                             (bflies * weight_mult_fraction);
  if (weight_only) return weight_rate;
  const double fp_rate = static_cast<double>(config.total_fp_bus()) * config.freq_hz / bflies;
  return weight_rate + fp_rate;
}

}  // namespace flash::accel
