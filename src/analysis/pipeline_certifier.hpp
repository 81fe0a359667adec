// End-to-end decryption-correctness certification of one HConv unit.
//
// PR 3's interval analyzer proves the FXP weight transform saturation-free;
// this layer composes that obligation with a BFV noise-growth model of the
// *whole* pipeline — fresh-encrypt noise, secret-share wrap of the plaintext
// message, ct×pt accumulation per backend (NTT/Shoup exact, FP-FFT roundoff,
// FXP-FFT spectrum error), the masking step and decrypt rounding — into one
// machine-checkable verdict per unit:
//
//   * kProvenCorrectDecryption — the certified noise bound stays below the
//     decryption ceiling q/(2t); decryption is correct except with
//     probability <= 2^fail_prob_log2 over the protocol's own randomness
//     (shares, encryption noise), for *every* activation input;
//   * kFailurePossibleWithWitness — a concrete activation pattern (see
//     materialize_witness) pushes the expected-achievable noise past the
//     ceiling: replaying it through the real protocol corrupts decryption;
//   * kInconclusive — the certified bound exceeds the ceiling but the
//     witness bound does not reach it (the gap between the λ-sigma upper
//     bound and the achievable peak), or the FXP transform itself cannot be
//     proven overflow-free so the spectrum-error term is unbounded.
//
// Noise model (invariant-noise form: decryption is correct iff the final
// |v| < q/(2t); bits below are log2 of the bound on |v·q/t|-scale noise,
// comparable against params.noise_ceiling_bits()):
//
//   v_fresh = e1 + e2·s - e·u          Var = σ²(1 + 4N/3)  per coefficient
//   share wrap: both halves of a secret-shared plaintext sum to M = m + t·b
//     with E[M (centered)] = 0 and Var(M/t) <= 1/4; through the conv the
//     wrap quotient K contributes -r·K (r = q mod t) per coefficient with
//     Var(K) <= V_max/4, V_max = max_i Σ_j w_j² over share slots feeding
//     output coefficient i (an exact sparse negacyclic convolution of w²
//     with the encoder's occupied-slot indicator);
//   ct×pt: v·w scales the fresh noise by the weight l2 norm; the FXP-FFT
//     backend additionally injects the *concrete* weight-spectrum error
//     ΔW = FXP(w) - FFT(w), whose contribution is amplified by the decrypt
//     convolution of the c1 component with the ternary secret:
//     Var = (1 + 2N/3)·(q²/(12M))·Σ_k|ΔW_k|²;
//   masking adds one more wrap unit (the server's uniform mask), and the
//   FP inverse transform's llround adds <= 0.5 per component.
//
// certified  = r + λ·sqrt(Σ variances), λ = 6 (per-coefficient tail 2^-29.9,
//              union-bounded over all output coefficients in fail_prob_log2);
// worst_case = the deterministic l1-norm ledger (10σ noise tail cut);
// witness    = the expected peak achieved by the all-(t/2) activation, which
//              maximizes the share-wrap variance (P(wrap) = 1/2 per slot).
//
// The model describes the transforms the served path runs: on kApproxFft
// the weight transform is FxpNegacyclicTransform::forward_batch_into in skip
// mode on the unit's sparsefft::SparseFftPlan (bfv/polymul_engine.cpp,
// HConvProtocol::prepare_weights), bit-identical to the dense transform and
// to a loop of forward_into at every SIMD level (tests/test_live_fxp.cpp and
// tests/test_simd_kernels.cpp pin this at the served config). A plan's
// certificate reads that plan's own spectra (HConvUnitDesc::spectra);
// without them the certifier runs the same skip-mode transform on the same
// signed coefficients. The exact reference FFT of ΔW runs sparsefft's exact
// executor on the same plan, bit-identical to the dense double FFT. The
// overflow proof is memoized per (n, config, max |w|)
// (negacyclic_overflow_free).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/fxp_analyzer.hpp"
#include "bfv/params.hpp"
#include "bfv/polymul_engine.hpp"
#include "core/thread_pool.hpp"
#include "fft/fxp_fft.hpp"
#include "tensor/tensor.hpp"

namespace flash::analysis {

enum class PipelineVerdict {
  kProvenCorrectDecryption,
  kFailurePossibleWithWitness,
  kInconclusive,
};

const char* to_string(PipelineVerdict v);

/// One stride-1 HConv unit: the padded input patch a single
/// HConvProtocol::run_stream call consumes, together with the backend that
/// multiplies it. (Strided convs decompose into these units exactly —
/// protocol/conv_geometry.hpp — and the phase shares sum mod t, which is
/// noise-free, so certifying every unit certifies the plan.)
struct HConvUnitDesc {
  bfv::BfvParams params;
  bfv::PolyMulBackend backend = bfv::PolyMulBackend::kNtt;
  /// Required iff backend == kApproxFft.
  std::optional<fft::FxpFftConfig> approx_config;
  std::size_t in_c = 1, in_h = 1, in_w = 1;  // stride-1, already-padded patch
  tensor::Tensor4 weights{1, 1, 1, 1};       // in_channels must equal in_c
  /// kApproxFft only, non-owning: the FXP weight spectra spec[m][tile] this
  /// unit multiplies (HConvProtocol::PreparedWeights::spec). The spectrum
  /// error then reads them instead of transforming the weights again. They
  /// must have out_channels rows of channel_tiles() entries, each n/2 long
  /// and of this backend; anything else, or spectra on another backend,
  /// throws std::invalid_argument. Null: the certifier transforms the
  /// weights itself.
  const std::vector<std::vector<bfv::PlainSpectrum>>* spectra = nullptr;
};

/// One additive term of the noise ledger, in bits (log2 of its contribution
/// to the certified bound; sqrt-of-variance scale for the stochastic terms).
struct NoiseTerm {
  std::string name;
  double bits = 0;
};

struct PipelineCertificate {
  PipelineVerdict verdict = PipelineVerdict::kInconclusive;

  double ceiling_bits = 0;         // params.noise_ceiling_bits()
  double certified_noise_bits = 0; // high-probability upper bound (λ = 6)
  double worst_case_noise_bits = 0;// deterministic l1 ledger (10σ tail cut)
  double witness_noise_bits = 0;   // expected peak of the witness input
  double margin_bits = 0;          // ceiling - certified (negative: unproven)
  double fail_prob_log2 = 0;       // union-bounded tail mass of `certified`

  /// FXP interval proof of the weight transform (PR 3 analyzer); trivially
  /// true for the exact backends.
  bool transform_overflow_free = true;

  /// Worst output channel's additive ledger (what `certified` is made of).
  std::vector<NoiseTerm> ledger;
  std::string detail;  // human-readable summary of the binding constraint
};

/// λ of the certified bound and the witness peak factor. Exposed so tests
/// can reason about the gap between the two.
inline constexpr double kCertifiedTailLambda = 6.0;
inline constexpr double kWitnessPeakFactor = 3.0;

/// Certify one unit. Cheap relative to executing it: per output channel, the
/// share-wrap variance costs O(nnz × occupied runs + N) (difference arrays
/// over the runs of occupied slots, exact in integers), and on kApproxFft
/// each channel tile adds one exact double FFT of the unit's plan — plus,
/// when desc.spectra is null, the skip-mode FXP transforms, run a chunk of
/// channels at a time in full SIMD lane groups. pool (optional, non-owning)
/// fans the chunks of output channels out; their ledgers merge in channel
/// order, so the certificate does not depend on the thread count.
PipelineCertificate certify_hconv_unit(const HConvUnitDesc& desc,
                                       core::ThreadPool* pool = nullptr);

/// The concrete adversarial activation for a unit: every cleartext value
/// t/2, which drives the per-slot share-wrap probability to 1/2 (maximal
/// wrap variance) — the input family that saturates the certified bound's
/// dominant term. Replaying it through the real protocol on an
/// under-budgeted parameter set reproduces a decryption failure
/// (tests/test_pipeline_certifier.cpp pins this).
struct PipelineWitness {
  tensor::Tensor3 activation{1, 1, 1};
  double predicted_noise_bits = 0;
  std::string description;
};

PipelineWitness materialize_witness(const HConvUnitDesc& desc);

}  // namespace flash::analysis
