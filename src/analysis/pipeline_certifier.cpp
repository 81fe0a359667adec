#include "analysis/pipeline_certifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "core/scratch.hpp"
#include "encoding/encoder.hpp"
#include "fft/negacyclic.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/modular.hpp"
#include "hemath/simd_batch.hpp"
#include "sparsefft/executor.hpp"

namespace flash::analysis {

namespace {

using hemath::i64;

// Relative-error envelope for the double-precision FFT datapath (forward,
// pointwise accumulate, inverse, llround). The true envelope is a few ulps
// (~2^-50 at N=4096); 2^-46 leaves a wide margin while staying orders of
// magnitude below the share-wrap terms it rides with.
constexpr double kFpRelEps = 1.0 / 70368744177664.0;  // 2^-46

// Worst-case cut of the rounded-Gaussian error tail (per-draw probability
// ~2^-66 at sigma = 3.2): the deterministic ledger treats |e| <= 10 sigma.
constexpr double kWorstCaseSigmas = 10.0;

double log2_safe(double v) { return v > 0 ? std::log2(v) : -1e9; }

/// A maximal run [first, last) of occupied activation slots.
struct Run {
  std::size_t first = 0, last = 0;
};

struct ChannelLedger {
  double certified = 0;   // r·wraps + λ·sqrt(variances)
  double worst_case = 0;  // deterministic l1 ledger
  double witness = 0;     // expected peak of the t/2 activation
  double l1 = 0;
  std::vector<NoiseTerm> terms;
};

void check_spectra(const std::vector<std::vector<bfv::PlainSpectrum>>& spectra,
                   bfv::PolyMulBackend backend, std::size_t m_out, std::size_t tiles,
                   std::size_t n) {
  if (backend != bfv::PolyMulBackend::kApproxFft) {
    throw std::invalid_argument("certify_hconv_unit: spectra are read on kApproxFft only");
  }
  if (spectra.size() != m_out) {
    throw std::invalid_argument("certify_hconv_unit: spectra need one row per output channel");
  }
  for (const auto& row : spectra) {
    if (row.size() != tiles) {
      throw std::invalid_argument("certify_hconv_unit: spectra need one entry per channel tile");
    }
    for (const bfv::PlainSpectrum& s : row) {
      if (s.backend != backend) {
        throw std::invalid_argument("certify_hconv_unit: a spectrum's backend does not match");
      }
      if (s.fft.size() != n / 2) {
        throw std::invalid_argument("certify_hconv_unit: a spectrum is not n/2 long");
      }
    }
  }
}

}  // namespace

const char* to_string(PipelineVerdict v) {
  switch (v) {
    case PipelineVerdict::kProvenCorrectDecryption: return "proven-correct-decryption";
    case PipelineVerdict::kFailurePossibleWithWitness: return "failure-possible-with-witness";
    case PipelineVerdict::kInconclusive: return "inconclusive";
  }
  return "unknown";
}

PipelineCertificate certify_hconv_unit(const HConvUnitDesc& desc, core::ThreadPool* pool) {
  const bfv::BfvParams& p = desc.params;
  const std::size_t n = p.n;
  const double q = static_cast<double>(p.q);
  const double r = static_cast<double>(p.q % p.t);
  const double sigma = p.error_sigma;
  const double nd = static_cast<double>(n);
  // Var of the fresh invariant noise e1 + e2·s - e·u (u, s ternary).
  const double fresh_var = sigma * sigma * (1.0 + 4.0 * nd / 3.0);
  // Amplification of any c1-side additive error by the decrypt convolution
  // with the ternary secret (variance form / absolute form).
  const double secret_var_amp = 1.0 + 2.0 * nd / 3.0;
  const double secret_abs_amp = 1.0 + nd;

  if (desc.weights.in_channels() != desc.in_c) {
    throw std::invalid_argument("certify_hconv_unit: channels do not match the weights");
  }
  if (desc.backend == bfv::PolyMulBackend::kApproxFft && !desc.approx_config.has_value()) {
    throw std::invalid_argument("certify_hconv_unit: kApproxFft requires an approx_config");
  }
  const bool is_fp = desc.backend != bfv::PolyMulBackend::kNtt;
  const bool is_approx = desc.backend == bfv::PolyMulBackend::kApproxFft;

  PipelineCertificate cert;
  cert.ceiling_bits = p.noise_ceiling_bits();

  const encoding::ConvEncoder enc(n, desc.in_c, desc.in_h, desc.in_w,
                                  desc.weights.kernel_h(), desc.weights.kernel_w());
  const std::size_t tiles = enc.geometry().channel_tiles();
  const std::size_t m_out = desc.weights.out_channels();
  if (desc.spectra != nullptr) {
    check_spectra(*desc.spectra, desc.backend, m_out, tiles, n);
  }

  // Occupied activation slots per channel tile, as maximal runs:
  // every coefficient the encoder maps carries a uniform share and can wrap,
  // including padding zeros (pad happens before sharing).
  std::vector<std::vector<Run>> occupied(tiles);
  {
    tensor::Tensor3 ones(desc.in_c, desc.in_h, desc.in_w);
    for (auto& v : ones.data()) v = 1;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::vector<i64> coeffs = enc.encode_activation(ones, tile);
      for (std::size_t i = 0; i < n;) {
        if (coeffs[i] == 0) {
          ++i;
          continue;
        }
        const std::size_t s = i;
        while (i < n && coeffs[i] != 0) ++i;
        occupied[tile].push_back({s, i});
      }
    }
  }

  // FXP-transform overflow obligation: the interval analyzer must prove the
  // weight datapath saturation-free, otherwise the concrete spectra below
  // are not representative of the whole weight family.
  double max_w = 0;
  for (const i64 v : desc.weights.data()) {
    max_w = std::max(max_w, std::abs(static_cast<double>(v)));
  }
  if (is_approx) {
    cert.transform_overflow_free =
        negacyclic_overflow_free(n, *desc.approx_config, std::max(1.0, max_w));
  }

  // The unit's plan — the one prepare_weights serves it with — schedules
  // both transforms of ΔW: the FXP batch when the certifier transforms the
  // weights itself, and the exact reference FFT.
  std::shared_ptr<const fft::NegacyclicFft> exact;
  std::shared_ptr<const fft::FxpNegacyclicTransform> fxp;
  std::optional<sparsefft::SparseFftPlan> plan;
  if (is_approx) {
    exact = fft::shared_negacyclic_fft(n);
    plan.emplace(n / 2, encoding::folded_weight_pattern(enc.geometry()));
    if (desc.spectra == nullptr) fxp = fft::shared_fxp_transform(n, *desc.approx_config);
  }

  // Per output channel: the final ciphertext accumulates every channel tile,
  // so the variance terms sum over tiles before the worst channel is taken.
  // On kApproxFft, approx[tile] is the channel's FXP spectrum against tile.
  const auto channel_ledger = [&](std::size_t m, const fft::cplx* const* approx) {
    core::ScratchFrame frame(core::thread_scratch());
    // V(k) = Σ_j w_j² · [(k - j) mod n is occupied] is the wrap variance
    // feeding output coefficient k (signs are irrelevant, variances add).
    // Each nonzero w_j adds w_j² on the cyclic interval [j + first,
    // j + last) of every occupied run: two difference-array updates, four
    // when the interval wraps. One prefix sum then gives every V(k), exactly.
    std::span<i64> diff = frame.alloc<i64>(n + 1);
    std::fill(diff.begin(), diff.end(), i64{0});
    std::span<double> wd = frame.alloc<double>(is_approx ? tiles * n : 0);
    double l1 = 0, l2sq = 0, delta2 = 0, delta_abs = 0;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::vector<i64> wc = enc.encode_weight(desc.weights, m, tile);
      for (std::size_t j = 0; j < n; ++j) {
        if (wc[j] == 0) continue;
        const double w = static_cast<double>(wc[j]);
        l1 += std::abs(w);
        l2sq += w * w;
        const i64 w2 = wc[j] * wc[j];
        for (const Run& run : occupied[tile]) {
          std::size_t a = j + run.first;
          if (a >= n) a -= n;
          const std::size_t e = a + (run.last - run.first);
          diff[a] += w2;
          if (e <= n) {
            diff[e] -= w2;
          } else {
            diff[0] += w2;
            diff[e - n] -= w2;
          }
        }
      }
      if (is_approx) {
        for (std::size_t j = 0; j < n; ++j) wd[tile * n + j] = static_cast<double>(wc[j]);
      }
    }
    i64 v = 0, v_max = 0;
    for (std::size_t k = 0; k < n; ++k) {
      v += diff[k];
      v_max = std::max(v_max, v);
    }

    // ΔW = FXP(w) - FFT(w).
    if (is_approx) {
      const std::size_t half = n / 2;
      const fft::ButterflySchedule& live = plan->schedule();
      std::span<fft::cplx> z = frame.alloc<fft::cplx>(half);
      std::span<fft::cplx> spec_exact = frame.alloc<fft::cplx>(half);
      for (std::size_t tile = 0; tile < tiles; ++tile) {
        exact->fold_into(wd.subspan(tile * n, n), z, &live);
        sparsefft::execute_into(*plan, z, spec_exact);
        for (std::size_t k = 0; k < half; ++k) {
          const fft::cplx d = approx[tile][k] - spec_exact[k];
          delta2 += std::norm(d);
          delta_abs += std::abs(d);
        }
      }
    }

    ChannelLedger led;
    led.l1 = l1;

    // Stochastic terms (variances; certified adds λ·sqrt of the sum).
    const double v_maxd = static_cast<double>(v_max);
    const double rlwe_var = fresh_var * l2sq;
    const double wrap_var = r * r * v_maxd / 4.0;
    const double approx_var =
        is_approx ? secret_var_amp * (q * q / (12.0 * static_cast<double>(n / 2))) * delta2 : 0.0;
    const double fp_var =
        is_fp ? kFpRelEps * kFpRelEps * (q * q / 12.0) * l2sq * secret_var_amp : 0.0;
    const double round_var = is_fp ? secret_var_amp / 12.0 : 0.0;
    const double var_total = rlwe_var + wrap_var + approx_var + fp_var + round_var;

    // Deterministic wraps: the server's mask re-lift (<= 1 quotient unit)
    // plus the centered-quotient rounding of the product (<= 1/2).
    const double det_wraps = 1.5 * r;

    led.certified = det_wraps + kCertifiedTailLambda * std::sqrt(var_total);
    led.witness = l1 > 0 ? r + kWitnessPeakFactor * std::sqrt(var_total) : det_wraps;
    led.worst_case = kWorstCaseSigmas * sigma * (1.0 + 2.0 * nd) * l1  // rlwe l1 ledger
                     + r * (l1 + 1.5)                                  // every slot wraps
                     + (is_approx ? secret_abs_amp * (q / std::sqrt(2.0)) * delta_abs : 0.0)
                     + (is_fp ? secret_abs_amp * (kFpRelEps * q * std::max(1.0, l1) + 0.5) : 0.0);

    led.terms.push_back({"mask+quotient wraps (det)", log2_safe(det_wraps)});
    led.terms.push_back({"share-wrap fluctuation", log2_safe(r * std::sqrt(v_maxd) / 2.0)});
    led.terms.push_back({"fresh rlwe x weights", log2_safe(std::sqrt(rlwe_var))});
    if (is_approx) led.terms.push_back({"fxp spectrum error", log2_safe(std::sqrt(approx_var))});
    if (is_fp) {
      led.terms.push_back({"fp roundoff envelope", log2_safe(std::sqrt(fp_var))});
      led.terms.push_back({"decrypt llround", log2_safe(std::sqrt(round_var))});
    }
    return led;
  };
  // Channels are certified a chunk at a time, the chunks fanned over the
  // pool. On kApproxFft the FXP spectra are the unit's own when it has them;
  // plan-less, a chunk's channels are transformed together before their
  // ledgers, so the chunk fills whole SIMD lane groups (lcm(tiles, lanes)
  // polynomials when a channel has fewer tiles than a group has lanes) and
  // scratch holds one chunk's spectra, never the layer's.
  const bool transform_here = is_approx && desc.spectra == nullptr;
  const std::size_t lanes = hemath::simd_batch::active_group_lanes();
  const std::size_t chunk = transform_here && tiles < lanes ? lanes / std::gcd(tiles, lanes) : 1;
  std::vector<ChannelLedger> ledgers(m_out);
  core::for_range(pool, (m_out + chunk - 1) / chunk, [&](std::size_t c) {
    const std::size_t first = c * chunk;
    const std::size_t count = std::min(chunk, m_out - first);
    core::ScratchFrame frame(core::thread_scratch());
    std::span<const fft::cplx*> approx = frame.alloc<const fft::cplx*>(count * tiles);
    if (is_approx && !transform_here) {
      for (std::size_t j = 0; j < count * tiles; ++j) {
        approx[j] = (*desc.spectra)[first + j / tiles][j % tiles].fft.data();
      }
    }
    if (transform_here) {
      const std::size_t polys = count * tiles;
      std::span<double> rows = frame.alloc<double>(polys * n);
      std::span<fft::cplx> spec = frame.alloc<fft::cplx>(polys * (n / 2));
      std::span<const double*> in = frame.alloc<const double*>(polys);
      std::span<fft::cplx*> out = frame.alloc<fft::cplx*>(polys);
      for (std::size_t j = 0; j < polys; ++j) {
        const std::vector<i64> wc = enc.encode_weight(desc.weights, first + j / tiles, j % tiles);
        std::copy(wc.begin(), wc.end(), rows.begin() + static_cast<std::ptrdiff_t>(j * n));
        in[j] = rows.data() + j * n;
        out[j] = spec.data() + j * (n / 2);
        approx[j] = out[j];
      }
      fxp->forward_batch_into(in, out, nullptr, &frame.arena(), &plan->schedule());
    }
    for (std::size_t k = 0; k < count; ++k) {
      ledgers[first + k] = channel_ledger(first + k, approx.data() + k * tiles);
    }
  });

  // Merge in channel order: the first channel with the largest certified
  // bound binds, whatever the thread count.
  ChannelLedger worst;
  bool first = true;
  for (ChannelLedger& led : ledgers) {
    if (first || led.certified > worst.certified) {
      if (!first) {
        // Keep the globally worst witness/worst_case even if another channel
        // binds the certified bound.
        led.witness = std::max(led.witness, worst.witness);
        led.worst_case = std::max(led.worst_case, worst.worst_case);
      }
      worst = std::move(led);
      first = false;
    } else {
      worst.witness = std::max(worst.witness, led.witness);
      worst.worst_case = std::max(worst.worst_case, led.worst_case);
    }
  }

  cert.certified_noise_bits = log2_safe(worst.certified);
  cert.worst_case_noise_bits = log2_safe(worst.worst_case);
  cert.witness_noise_bits = log2_safe(worst.witness);
  cert.margin_bits = cert.ceiling_bits - cert.certified_noise_bits;
  cert.ledger = std::move(worst.terms);

  // Union bound over every coefficient of every output channel's final
  // ciphertext (conservative: extraction only reads the output positions).
  const double per_coeff_tail = std::erfc(kCertifiedTailLambda / std::sqrt(2.0));
  cert.fail_prob_log2 =
      std::log2(static_cast<double>(n * m_out)) + std::log2(per_coeff_tail);

  const bool proven = cert.transform_overflow_free && cert.margin_bits > 0;
  if (proven) {
    cert.verdict = PipelineVerdict::kProvenCorrectDecryption;
  } else if (cert.witness_noise_bits >= cert.ceiling_bits && worst.l1 > 0) {
    cert.verdict = PipelineVerdict::kFailurePossibleWithWitness;
  } else {
    cert.verdict = PipelineVerdict::kInconclusive;
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: certified 2^%.2f vs ceiling 2^%.2f (margin %.2f bits), "
                "witness 2^%.2f, worst-case 2^%.2f, fail<=2^%.1f%s",
                to_string(cert.verdict), cert.certified_noise_bits, cert.ceiling_bits,
                cert.margin_bits, cert.witness_noise_bits, cert.worst_case_noise_bits,
                cert.fail_prob_log2,
                cert.transform_overflow_free ? "" : "; FXP transform NOT overflow-free");
  cert.detail = buf;
  return cert;
}

PipelineWitness materialize_witness(const HConvUnitDesc& desc) {
  const PipelineCertificate cert = certify_hconv_unit(desc);
  PipelineWitness w;
  w.activation = tensor::Tensor3(desc.in_c, desc.in_h, desc.in_w);
  const i64 half = static_cast<i64>(desc.params.t / 2);
  for (auto& v : w.activation.data()) v = half;
  w.predicted_noise_bits = cert.witness_noise_bits;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "all-coefficients t/2 activation (share-wrap probability 1/2 per slot); "
                "expected noise peak 2^%.2f vs ceiling 2^%.2f",
                cert.witness_noise_bits, cert.ceiling_bits);
  w.description = buf;
  return w;
}

}  // namespace flash::analysis
