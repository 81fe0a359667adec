// Pipeline certifier vs the real pipeline (a differential property tier).
//
// The certificates (analysis/pipeline_certifier.hpp) are only worth trusting
// if they are *sound against execution*: this suite replays generator-corpus
// conv workloads through the actual secret-share + encrypt + conv + decrypt
// pipeline and checks that
//
//   1. the certified noise bound dominates the measured invariant noise on
//      every corpus case, for random activations AND for the certifier's own
//      adversarial witness input;
//   2. the committed benchmark configurations prove end to end (the same
//      obligation CERT_baseline.json pins for CI);
//   3. on a deliberately under-budgeted parameter set the verdict is
//      failure-possible and replaying the emitted witness through the real
//      protocol *actually corrupts decryption* (decrypted values diverge
//      from the exact mod-t negacyclic reference), while the proven
//      parameter set decrypts the very same adversarial input exactly;
//   4. the ConvServer registration gate and the DSE SafetyCache consume the
//      verdicts as specified (kWarn/kEnforce policies, pipeline obligation);
//   5. certificates stay exact across commits: pinned hex constants for
//      every backend and tiling shape and for all 20 ResNet-18 convs at
//      paper scale, a plan's certificate (its own spectra, any pool) equal
//      to the plan-less one field for field, and misshapen spectra refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bfv/context.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "core/flash_accelerator.hpp"
#include "core/thread_pool.hpp"
#include "dse/cost_model.hpp"
#include "dse/error_model.hpp"
#include "dse/safety.hpp"
#include "dse/space.hpp"
#include "encoding/encoder.hpp"
#include "hemath/sampler.hpp"
#include "protocol/plan_certificate.hpp"
#include "serve/conv_server.hpp"
#include "tensor/resnet.hpp"
#include "tensor/tensor.hpp"
#include "testing/generators.hpp"

namespace {

using flash::hemath::i64;
using flash::hemath::u64;

struct Replay {
  double noise_bits = 0;         // worst output channel, ceiling - budget
  bool values_match_ref = true;  // decrypted poly == exact mod-t reference
};

/// Exact mod-t negacyclic product accumulator: ref += a * b over
/// Z_t[X]/(X^n+1), a in [0,t), b signed. Products fit i64 comfortably at the
/// sizes this suite replays (n <= 4096, t <= 2^20, |b| small).
void accumulate_negacyclic_ref(std::vector<i64>& ref, const std::vector<i64>& a,
                               const std::vector<i64>& b, u64 t) {
  const std::size_t n = a.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (b[j] == 0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i + j;
      const i64 term = a[i] * b[j];
      if (k < n) {
        ref[k] = (ref[k] + term) % static_cast<i64>(t);
      } else {
        ref[k - n] = (ref[k - n] - term) % static_cast<i64>(t);
      }
    }
  }
}

/// Run one stride-1 HConv unit through the real share/encrypt/conv/decrypt
/// pipeline and report the measured invariant noise plus value correctness
/// against the exact mod-t reference. `witness_input` replaces the random
/// activation with the certifier's adversarial all-(t/2) pattern.
Replay replay_unit(const flash::bfv::BfvParams& params, flash::bfv::PolyMulBackend backend,
                   const std::optional<flash::fft::FxpFftConfig>& cfg,
                   const flash::tensor::Tensor4& wts, std::size_t H, std::size_t W,
                   std::uint64_t seed, bool witness_input) {
  namespace bfv = flash::bfv;
  flash::bfv::BfvContext ctx(params);
  flash::hemath::Sampler sampler(seed);
  bfv::KeyGenerator keygen(ctx, sampler);
  const auto sk = keygen.secret_key();
  const auto pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  bfv::Decryptor dec(ctx, sk);
  bfv::Evaluator ev(ctx, backend, cfg);
  const std::size_t C = wts.in_channels(), M = wts.out_channels(), K = wts.kernel_h();

  flash::hemath::Sampler data_sampler(seed ^ 0x517cc1b727220a95ULL);
  flash::encoding::ConvEncoder enc(params.n, C, H, W, K);
  const std::size_t tiles = enc.geometry().channel_tiles();

  // Secret-share the activation: x = x_c + x_s (mod t), client half
  // encrypted, server half added as plaintext.
  flash::tensor::Tensor3 x(C, H, W), x_c(C, H, W), x_s(C, H, W);
  for (auto& v : x.data()) {
    v = witness_input ? static_cast<i64>(params.t / 2)
                      : static_cast<i64>(data_sampler.uniform_mod(256));
  }
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    const u64 mc = data_sampler.uniform_mod(params.t);
    x_c.data()[i] = static_cast<i64>(mc);
    x_s.data()[i] = static_cast<i64>(
        (static_cast<u64>(x.data()[i]) + params.t - mc) % params.t);
  }

  std::vector<bfv::Ciphertext> cts;
  std::vector<std::vector<i64>> x_polys(tiles);  // recombined, mod t
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    bfv::Plaintext pt = ctx.make_plaintext();
    const auto cc = enc.encode_activation(x_c, tile);
    for (std::size_t i = 0; i < params.n; ++i) {
      pt.poly[i] = static_cast<u64>(cc[i]) % params.t;
    }
    flash::hemath::Sampler enc_sampler(seed + 77 + tile);
    bfv::Encryptor encr(ctx, enc_sampler);
    cts.push_back(encr.encrypt(pt, pk));

    bfv::Plaintext ps = ctx.make_plaintext();
    const auto sc = enc.encode_activation(x_s, tile);
    for (std::size_t i = 0; i < params.n; ++i) {
      ps.poly[i] = static_cast<u64>(sc[i]) % params.t;
    }
    ev.add_plain_inplace(cts.back(), ps.poly.coeffs());

    x_polys[tile].resize(params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
      x_polys[tile][i] =
          static_cast<i64>((pt.poly[i] + ps.poly[i]) % params.t);
    }
  }
  std::vector<bfv::Evaluator::CiphertextSpectrum> specs;
  specs.reserve(cts.size());
  for (auto& ct : cts) specs.push_back(ev.transform_ciphertext(ct));

  Replay out;
  double worst_budget = 1e300;
  for (std::size_t m = 0; m < M; ++m) {
    bfv::Evaluator::CiphertextAccumulator accum;
    std::vector<i64> ref(params.n, 0);
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      bfv::Plaintext pt = ctx.make_plaintext();
      const auto coeffs = enc.encode_weight(wts, m, tile);
      std::vector<i64> w_signed(params.n);
      for (std::size_t i = 0; i < params.n; ++i) {
        pt.poly[i] = flash::hemath::from_signed(coeffs[i], params.t);
        w_signed[i] = coeffs[i];
      }
      ev.multiply_accumulate(specs[tile], ev.transform_plain(pt), accum);
      accumulate_negacyclic_ref(ref, x_polys[tile], w_signed, params.t);
    }
    bfv::Ciphertext acc = ev.finalize(accum);
    worst_budget = std::min(worst_budget, dec.invariant_noise_budget(acc));

    const bfv::Plaintext decoded = dec.decrypt(acc);
    for (std::size_t i = 0; i < params.n; ++i) {
      const u64 want =
          static_cast<u64>(((ref[i] % static_cast<i64>(params.t)) + static_cast<i64>(params.t)) %
                           static_cast<i64>(params.t));
      if (decoded.poly[i] % params.t != want) {
        out.values_match_ref = false;
        break;
      }
    }
  }
  out.noise_bits = params.noise_ceiling_bits() - worst_budget;
  return out;
}

flash::tensor::Tensor4 uniform_weights(std::size_t M, std::size_t C, std::size_t K, i64 max_w,
                                       std::uint64_t seed) {
  flash::tensor::Tensor4 wts(M, C, K, K);
  std::mt19937_64 rng(seed);  // flash-lint: allow(raw-rng): deterministic test fixture weights
  std::uniform_int_distribution<i64> dist(-max_w, max_w);
  for (auto& v : wts.data()) v = dist(rng);
  return wts;
}

// ---------------------------------------------------------------------------
// 1. Soundness against execution: the certified bound dominates replayed
//    noise across the generator corpus, on random and adversarial inputs.

TEST(PipelineCertifier, CertifiedBoundDominatesReplayedNoiseAcrossCorpus) {
  struct Backend {
    flash::bfv::PolyMulBackend backend;
    bool approx;
  };
  const Backend backends[] = {
      {flash::bfv::PolyMulBackend::kNtt, false},
      {flash::bfv::PolyMulBackend::kFft, false},
      {flash::bfv::PolyMulBackend::kApproxFft, true},
  };

  for (const std::uint64_t seed : {11ULL, 29ULL, 73ULL}) {
    // Stride-1, unpadded corpus draw: the whole conv is one certifier unit.
    flash::testing::ConvSpec spec;
    spec.seed = seed;
    spec.stride = 1;
    spec.pad = 0;
    const auto cse = flash::testing::make_conv_case(spec);

    for (const Backend& b : backends) {
      flash::analysis::HConvUnitDesc desc;
      desc.params = cse.params;
      desc.backend = b.backend;
      if (b.approx) {
        desc.approx_config = flash::core::high_accuracy_approx_config(cse.params.n, cse.params.t);
      }
      desc.in_c = cse.x.channels();
      desc.in_h = cse.x.height();
      desc.in_w = cse.x.width();
      desc.weights = cse.weights;
      const auto cert = flash::analysis::certify_hconv_unit(desc);

      for (const bool witness : {false, true}) {
        const Replay r = replay_unit(cse.params, b.backend, desc.approx_config, cse.weights,
                                     desc.in_h, desc.in_w, seed * 10 + 1, witness);
        EXPECT_GE(cert.certified_noise_bits, r.noise_bits)
            << cse.spec.describe() << " backend=" << static_cast<int>(b.backend)
            << " witness=" << witness;
        // ...and is not absurdly loose: within 10 bits of the replay.
        EXPECT_LE(cert.certified_noise_bits, r.noise_bits + 10.0)
            << cse.spec.describe() << " backend=" << static_cast<int>(b.backend)
            << " witness=" << witness;
        // A proven verdict must also mean the replay decrypted exactly.
        if (cert.verdict == flash::analysis::PipelineVerdict::kProvenCorrectDecryption) {
          EXPECT_TRUE(r.values_match_ref) << cse.spec.describe();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. The committed benchmark configurations prove end to end (the CI baseline
//    obligation, CERT_baseline.json, pins the same verdicts with bits).

TEST(PipelineCertifier, BenchmarkConfigsProveEndToEnd) {
  {
    const auto params = flash::bfv::BfvParams::create(4096, 20, 49);
    const auto wts = uniform_weights(8, 16, 3, 4, /*seed=*/21);
    for (const auto backend : {flash::bfv::PolyMulBackend::kNtt, flash::bfv::PolyMulBackend::kFft,
                               flash::bfv::PolyMulBackend::kApproxFft}) {
      std::optional<flash::fft::FxpFftConfig> cfg;
      if (backend == flash::bfv::PolyMulBackend::kApproxFft) {
        cfg = flash::core::high_accuracy_approx_config(params.n, params.t);
      }
      const auto cert =
          flash::protocol::certify_conv(params, backend, cfg, 16, 12, 12, wts, 1, 1);
      EXPECT_TRUE(cert.proven()) << cert.overall.detail;
      EXPECT_GT(cert.overall.margin_bits, 0.0);
    }
  }
  {
    const auto params = flash::bfv::BfvParams::create(2048, 17, 44);
    const auto wts = uniform_weights(8, 8, 3, 4, /*seed=*/22);
    const auto cert = flash::protocol::certify_conv(
        params, flash::bfv::PolyMulBackend::kApproxFft,
        flash::core::high_accuracy_approx_config(params.n, params.t), 8, 8, 8, wts, 1, 1);
    EXPECT_TRUE(cert.proven()) << cert.overall.detail;
  }
}

// ---------------------------------------------------------------------------
// 3. Witness fidelity: on the under-budgeted parameter set the verdict is
//    failure-possible and the emitted witness, replayed through the real
//    pipeline, corrupts the decrypted values; the proven parameter set
//    decrypts the same adversarial input exactly.

TEST(PipelineCertifier, UnderBudgetWitnessReplayCorruptsDecryption) {
  const auto wts = uniform_weights(8, 8, 3, 7, /*seed=*/7);
  const std::size_t H = 8, W = 8;

  const auto tight = flash::bfv::BfvParams::create(2048, 17, 30);
  flash::analysis::HConvUnitDesc desc;
  desc.params = tight;
  desc.backend = flash::bfv::PolyMulBackend::kNtt;
  desc.in_c = 8;
  desc.in_h = H;
  desc.in_w = W;
  desc.weights = wts;
  const auto cert = flash::analysis::certify_hconv_unit(desc);
  ASSERT_EQ(cert.verdict, flash::analysis::PipelineVerdict::kFailurePossibleWithWitness)
      << cert.detail;
  EXPECT_GE(cert.witness_noise_bits, cert.ceiling_bits);

  const auto witness = flash::analysis::materialize_witness(desc);
  EXPECT_EQ(witness.activation.data()[0], static_cast<i64>(tight.t / 2));

  // Replaying the witness activation through the real protocol must actually
  // break decryption, not just exceed a model bound.
  const Replay bad = replay_unit(tight, desc.backend, std::nullopt, wts, H, W,
                                 /*seed=*/5, /*witness_input=*/true);
  EXPECT_GE(bad.noise_bits, cert.ceiling_bits);
  EXPECT_FALSE(bad.values_match_ref);

  // Same workload, same adversarial input, the proven budget: exact result.
  const auto roomy = flash::bfv::BfvParams::create(2048, 17, 44);
  desc.params = roomy;
  const auto cert_ok = flash::analysis::certify_hconv_unit(desc);
  ASSERT_EQ(cert_ok.verdict, flash::analysis::PipelineVerdict::kProvenCorrectDecryption)
      << cert_ok.detail;
  const Replay good = replay_unit(roomy, desc.backend, std::nullopt, wts, H, W,
                                  /*seed=*/5, /*witness_input=*/true);
  EXPECT_TRUE(good.values_match_ref);
  EXPECT_LT(good.noise_bits, cert_ok.certified_noise_bits);
}

// ---------------------------------------------------------------------------
// 4a. ConvServer registration gate.

TEST(PipelineCertifier, ServerEnforceRejectsUncertifiedAndWarnFlags) {
  const auto tight = flash::bfv::BfvParams::create(2048, 17, 30);
  flash::bfv::BfvContext ctx(tight);

  flash::serve::PlanSpec spec;
  spec.ctx = &ctx;
  spec.backend = flash::bfv::PolyMulBackend::kNtt;
  spec.protocol_seed = 42;
  spec.weights = uniform_weights(8, 8, 3, 7, /*seed=*/7);
  spec.in_h = 8;
  spec.in_w = 8;

  {
    flash::serve::ServerOptions opt;
    opt.dispatchers = 0;  // manual mode: registration is all this test runs
    opt.certify = flash::serve::CertifyPolicy::kEnforce;
    flash::serve::ConvServer server(opt);
    EXPECT_THROW(server.register_plan(spec), std::invalid_argument);
    EXPECT_NE(server.metrics_json().find("\"plans_rejected_uncertified\": 1"), std::string::npos);
  }
  {
    flash::serve::ServerOptions opt;
    opt.dispatchers = 0;
    opt.certify = flash::serve::CertifyPolicy::kWarn;
    flash::serve::ConvServer server(opt);
    const auto plan = server.register_plan(spec);
    const auto cert = server.plan_certificate(plan);
    ASSERT_TRUE(cert.has_value());
    EXPECT_FALSE(cert->proven());
    const std::string json = server.metrics_json();
    EXPECT_NE(json.find("\"plans_certified_unproven\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"verdict\": \"failure-possible-with-witness\""), std::string::npos)
        << json;
  }
  {
    // A provable plan registers under kEnforce and is flagged proven.
    const auto roomy = flash::bfv::BfvParams::create(2048, 17, 44);
    flash::bfv::BfvContext ctx_ok(roomy);
    flash::serve::PlanSpec ok = spec;
    ok.ctx = &ctx_ok;
    flash::serve::ServerOptions opt;
    opt.dispatchers = 0;
    opt.certify = flash::serve::CertifyPolicy::kEnforce;
    flash::serve::ConvServer server(opt);
    const auto plan = server.register_plan(ok);
    const auto cert = server.plan_certificate(plan);
    ASSERT_TRUE(cert.has_value());
    EXPECT_TRUE(cert->proven());
    EXPECT_NE(server.metrics_json().find("\"plans_certified_proven\": 1"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// 4b. DSE SafetyCache: with a pipeline obligation attached, saturation-free
//     is no longer sufficient — the end-to-end certificate must prove too.

TEST(PipelineCertifier, SafetyCacheHonorsPipelineObligation) {
  const std::size_t n = 512;
  flash::dse::DesignSpace space(n / 2, flash::dse::SpaceBounds{10, 48, 2, 20});
  const auto model = flash::dse::ErrorModel::from_weight_stats(n, 18, 7.0);

  flash::dse::PipelineObligation obligation;
  obligation.params = flash::bfv::BfvParams::create(512, 12, 34);
  obligation.in_c = 2;
  obligation.in_h = 6;
  obligation.in_w = 6;
  obligation.kernel_h = 3;
  obligation.kernel_w = 3;
  obligation.max_w = 3.0;

  // The full-precision corner proves end to end.
  const auto full = space.full_precision();
  const auto cert_full = flash::dse::certify_design_point(space, model, obligation, full);
  EXPECT_EQ(cert_full.verdict, flash::analysis::PipelineVerdict::kProvenCorrectDecryption)
      << cert_full.detail;

  // The default-accuracy corner (uniform width 27, k=5) is saturation-free —
  // the transform-level safety gate admits it — but its spectrum error
  // corrupts decryption at these BFV parameters: only the obligated cache
  // rejects it.
  flash::dse::DesignPoint w27 = full;
  for (auto& w : w27.stage_widths) w = 27;
  w27.twiddle_k = 5;
  ASSERT_TRUE(flash::dse::design_point_proven_safe(space, model, w27));
  const auto cert_w27 = flash::dse::certify_design_point(space, model, obligation, w27);
  EXPECT_NE(cert_w27.verdict, flash::analysis::PipelineVerdict::kProvenCorrectDecryption);

  flash::dse::SafetyCache plain(space, model);
  flash::dse::SafetyCache obligated(space, model, obligation);
  EXPECT_TRUE(plain.proven_safe(w27));
  EXPECT_FALSE(obligated.proven_safe(w27));
  EXPECT_TRUE(obligated.proven_safe(full));

  // Mismatched ring degree is a setup error, not a silent pass.
  flash::dse::PipelineObligation wrong = obligation;
  wrong.params = flash::bfv::BfvParams::create(1024, 12, 34);
  EXPECT_THROW(flash::dse::certify_design_point(space, model, wrong, full), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 5. Certificates pinned across commits. CERT_baseline.json keeps two
//    decimals, so it cannot show that a refactor of the certifier is exact;
//    these constants (hex doubles, recorded before the certifier read plan
//    spectra, computed V_max from difference arrays and fanned channels out
//    over a pool) can.

/// Seeded 4-bit weights in [-7, 7], from raw mt19937_64 output (whose
/// sequence the standard fixes, unlike the distributions').
flash::tensor::Tensor4 seeded_weights(std::size_t m, std::size_t c, std::size_t k,
                                      std::uint64_t seed) {
  flash::tensor::Tensor4 w(m, c, k, k);
  std::mt19937_64 rng(seed);  // flash-lint: allow(raw-rng): deterministic test fixture weights
  for (auto& v : w.data()) v = static_cast<i64>(rng() % 15) - 7;
  return w;
}

void expect_same_cert(const flash::analysis::PipelineCertificate& a,
                      const flash::analysis::PipelineCertificate& b, const std::string& what) {
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.ceiling_bits, b.ceiling_bits) << what;
  EXPECT_EQ(a.certified_noise_bits, b.certified_noise_bits) << what;
  EXPECT_EQ(a.worst_case_noise_bits, b.worst_case_noise_bits) << what;
  EXPECT_EQ(a.witness_noise_bits, b.witness_noise_bits) << what;
  EXPECT_EQ(a.margin_bits, b.margin_bits) << what;
  EXPECT_EQ(a.fail_prob_log2, b.fail_prob_log2) << what;
  EXPECT_EQ(a.transform_overflow_free, b.transform_overflow_free) << what;
  ASSERT_EQ(a.ledger.size(), b.ledger.size()) << what;
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    EXPECT_EQ(a.ledger[i].name, b.ledger[i].name) << what;
    EXPECT_EQ(a.ledger[i].bits, b.ledger[i].bits) << what << " " << a.ledger[i].name;
  }
  EXPECT_EQ(a.detail, b.detail) << what;
}

void expect_same_plan_cert(const flash::protocol::PlanCertificate& a,
                           const flash::protocol::PlanCertificate& b, const std::string& what) {
  expect_same_cert(a.overall, b.overall, what + " overall");
  ASSERT_EQ(a.units.size(), b.units.size()) << what;
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    const std::string unit = what + " unit " + std::to_string(u);
    EXPECT_EQ(a.units[u].phase_index, b.units[u].phase_index) << unit;
    EXPECT_EQ(a.units[u].phase_a, b.units[u].phase_a) << unit;
    EXPECT_EQ(a.units[u].phase_b, b.units[u].phase_b) << unit;
    EXPECT_EQ(a.units[u].patch_h, b.units[u].patch_h) << unit;
    EXPECT_EQ(a.units[u].patch_w, b.units[u].patch_w) << unit;
    EXPECT_EQ(a.units[u].tile_count, b.units[u].tile_count) << unit;
    expect_same_cert(a.units[u].cert, b.units[u].cert, unit);
  }
}

struct CertPin {
  flash::analysis::PipelineVerdict verdict;
  double certified, witness, worst_case;
  std::vector<double> ledger;  // bits, in ledger order
};

TEST(PipelineCertifier, MatchesRecordedCertificates) {
  namespace bfv = flash::bfv;
  using flash::analysis::PipelineVerdict;
  constexpr PipelineVerdict kProven = PipelineVerdict::kProvenCorrectDecryption;
  const auto params = bfv::BfvParams::create(2048, 17, 44);
  const bfv::BfvContext ctx(params);
  flash::core::ThreadPool pool(3);

  struct Shape {
    const char* name;
    std::size_t c, hw, m, k, stride, pad;
  };
  const Shape shapes[] = {
      // 7x7 phase input, 41 channels per polynomial: tiles of 41, 41 and 14.
      {"1x1 stride-2 over channel tiles", 96, 14, 8, 1, 2, 0},
      // 50x50 padded input, 42x42 output tiles: four patch shapes.
      {"3x3 over spatial tiles", 4, 48, 4, 3, 1, 1},
      {"3x3 stride-2 pad-1 (4 live phases)", 8, 16, 8, 3, 2, 1},
      // 14x14 padded input, 10 channels per polynomial: tiles of 10, 10, 3.
      {"3x3 short last channel tile", 23, 12, 6, 3, 1, 1},
  };
  const bfv::PolyMulBackend backends[] = {bfv::PolyMulBackend::kNtt, bfv::PolyMulBackend::kFft,
                                          bfv::PolyMulBackend::kApproxFft};
  // [shape][backend]: kApproxFft at high_accuracy_approx_config.
  const CertPin pins[4][3] = {
      {
          {kProven, 0x1.5d0f64d5db851p+4, 0x1.4d264a9787b29p+4, 0x1.9cd6e1121e203p+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.336dc177eb158p+4, 0x1.995e2b885ae89p+3}},
          {kProven, 0x1.5d0f64d7929dcp+4, 0x1.4d264a993d189p+4, 0x1.9ce070caf8917p+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.336dc177eb158p+4, 0x1.995e2b885ae89p+3,
            0x1.74a31f7bfa30cp+2, 0x1.b531413942d8dp+1}},
          {kProven, 0x1.5ee4bb39d6fcfp+4, 0x1.4ef9e23a5935fp+4, 0x1.1d5a8056cae06p+5,
           {0x1.ec8e46c9ef9d3p+3, 0x1.3368d3c5437c2p+4, 0x1.995450230bb5ep+3,
            0x1.1f6013b1f7e5ep+4, 0x1.748f68b15bcb6p+2, 0x1.b531413942d8dp+1}},
      },
      {
          {kProven, 0x1.535b6bc399fafp+4, 0x1.437e3f4194ac1p+4, 0x1.89077cbd2a56dp+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.2995490da25b7p+4, 0x1.85ad3ab3c9748p+3}},
          {kProven, 0x1.535b6bc5628d9p+4, 0x1.437e3f435a8fdp+4, 0x1.89112df92fd4dp+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.2995490da25b7p+4, 0x1.85ad3ab3c9748p+3,
            0x1.4d413dd2d748bp+2, 0x1.b531413942d8dp+1}},
          {kProven, 0x1.578614f281923p+4, 0x1.47a32ba451e08p+4, 0x1.1f83b92ddff28p+5,
           {0x1.ec8e46c9ef9d3p+3, 0x1.2995490da25b7p+4, 0x1.85ad3ab3c9748p+3,
            0x1.20326403cafbap+4, 0x1.4d413dd2d748bp+2, 0x1.b531413942d8dp+1}},
      },
      {
          {kProven, 0x1.513c5460ff40ep+4, 0x1.41627f509addap+4, 0x1.849ea46d66443p+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.276bea88bb71cp+4, 0x1.815a7da9fba11p+3}},
          {kProven, 0x1.513c5462ce434p+4, 0x1.41627f5266e4ep+4, 0x1.84a861e822a08p+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.276bea88bb71cp+4, 0x1.815a7da9fba11p+3,
            0x1.449bc3bf3ba1cp+2, 0x1.b531413942d8dp+1}},
          {kProven, 0x1.530af74463f5cp+4, 0x1.432e449c1b4a1p+4, 0x1.10daeb4a58d9cp+5,
           {0x1.ec8e46c9ef9d3p+3, 0x1.276bea88bb71cp+4, 0x1.815a7da9fba11p+3,
            0x1.132c7b716e515p+4, 0x1.449bc3bf3ba1cp+2, 0x1.b531413942d8dp+1}},
      },
      {
          {kProven, 0x1.6690990f22e7ap+4, 0x1.569fc6e9d36cbp+4, 0x1.af39671563a57p+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.3d066aac4d53fp+4, 0x1.ac8f7df11f657p+3}},
          {kProven, 0x1.66909910d333bp+4, 0x1.569fc6eb829cep+4, 0x1.af42e943c14cdp+4,
           {0x1.ec8e46c9ef9d3p+3, 0x1.3d066aac4d53fp+4, 0x1.ac8f7df11f657p+3,
            0x1.9b05c44d832a8p+2, 0x1.b531413942d8dp+1}},
          {kProven, 0x1.676ccbb6df49fp+4, 0x1.577b6b9c2f838p+4, 0x1.1da73fdfb60bap+5,
           {0x1.ec8e46c9ef9d3p+3, 0x1.3d066aac4d53fp+4, 0x1.ac8f7df11f657p+3,
            0x1.1f94e20447363p+4, 0x1.9b05c44d832a8p+2, 0x1.b531413942d8dp+1}},
      },
  };

  for (std::size_t s = 0; s < 4; ++s) {
    const Shape& sh = shapes[s];
    const auto w = seeded_weights(sh.m, sh.c, sh.k, 0xce27 + s);
    for (std::size_t b = 0; b < 3; ++b) {
      const bfv::PolyMulBackend backend = backends[b];
      std::optional<flash::fft::FxpFftConfig> cfg;
      if (backend == bfv::PolyMulBackend::kApproxFft) {
        cfg = flash::core::high_accuracy_approx_config(params.n, params.t);
      }
      const std::string what = std::string(sh.name) + " backend " +
                               std::to_string(static_cast<int>(backend));
      const auto conv =
          flash::protocol::certify_conv(params, backend, cfg, sh.c, sh.hw, sh.hw, w, sh.stride,
                                        sh.pad);
      const CertPin& pin = pins[s][b];
      EXPECT_EQ(conv.overall.verdict, pin.verdict) << what;
      EXPECT_EQ(conv.overall.certified_noise_bits, pin.certified) << what;
      EXPECT_EQ(conv.overall.witness_noise_bits, pin.witness) << what;
      EXPECT_EQ(conv.overall.worst_case_noise_bits, pin.worst_case) << what;
      ASSERT_EQ(conv.overall.ledger.size(), pin.ledger.size()) << what;
      for (std::size_t i = 0; i < pin.ledger.size(); ++i) {
        EXPECT_EQ(conv.overall.ledger[i].bits, pin.ledger[i])
            << what << " " << conv.overall.ledger[i].name;
      }

      // The served plan's certificate, serial and on a pool, is the same
      // certificate (on kApproxFft it reads the plan's own spectra).
      flash::protocol::HConvProtocol proto(ctx, backend, cfg, /*seed=*/s);
      const flash::protocol::ConvRunner runner(proto, &pool);
      const auto plan = runner.prepare(sh.c, sh.hw, sh.hw, w, sh.stride, sh.pad);
      expect_same_plan_cert(flash::protocol::certify_plan(params, backend, cfg, *plan), conv,
                            what + " plan serial");
      expect_same_plan_cert(flash::protocol::certify_plan(params, backend, cfg, *plan, &pool),
                            conv, what + " plan pool");
    }
  }
}

TEST(PipelineCertifier, ResNet18PaperScaleMatchesRecordedBits) {
  // All 20 ResNet-18 convs on kFft at N = 4096, t = 2^20, 49-bit q: stage 4
  // packs 50 channels per polynomial and leaves a short last tile.
  const auto params = flash::bfv::BfvParams::create(4096, 20, 49);
  const auto layers = flash::tensor::resnet18_conv_layers();
  const double certified[20] = {
      0x1.68feae5d8bf15p+4,  // conv1
      0x1.824be4fa1cb5p+4,   // layer1.0.conv1
      0x1.82375b7a5d23ep+4,  // layer1.0.conv2
      0x1.82a09f02bd033p+4,  // layer1.1.conv1
      0x1.823bfd9cea428p+4,  // layer1.1.conv2
      0x1.7976e6fb1b286p+4,  // layer2.0.conv1
      0x1.8a8255c1196e2p+4,  // layer2.0.conv2
      0x1.6a7dd540d4e4dp+4,  // layer2.0.downsample
      0x1.8a0a8f9eb18f9p+4,  // layer2.1.conv1
      0x1.8a6352f297e8bp+4,  // layer2.1.conv2
      0x1.814f1824d578fp+4,  // layer3.0.conv1
      0x1.921730775a682p+4,  // layer3.0.conv2
      0x1.72d14aabc0c58p+4,  // layer3.0.downsample
      0x1.91f98d0066307p+4,  // layer3.1.conv1
      0x1.91fe562a510b3p+4,  // layer3.1.conv2
      0x1.88fff0c37da5fp+4,  // layer4.0.conv1
      0x1.99e78e973f372p+4,  // layer4.0.conv2
      0x1.79faea1a960c7p+4,  // layer4.0.downsample
      0x1.99d9350bae0e2p+4,  // layer4.1.conv1
      0x1.99e677e46fba1p+4,  // layer4.1.conv2
  };
  ASSERT_EQ(layers.size(), 20u);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& l = layers[i];
    const auto w = seeded_weights(l.out_c, l.in_c, l.kernel, 0x18e5 + i);
    const auto cert = flash::protocol::certify_conv(params, flash::bfv::PolyMulBackend::kFft,
                                                    std::nullopt, l.in_c, l.in_h, l.in_w, w,
                                                    l.stride, l.pad);
    EXPECT_EQ(cert.overall.certified_noise_bits, certified[i]) << l.name;
    EXPECT_TRUE(cert.proven()) << l.name << ": " << cert.overall.detail;
  }
}

TEST(PipelineCertifier, RejectsMisshapenSpectra) {
  namespace bfv = flash::bfv;
  const auto params = bfv::BfvParams::create(2048, 17, 44);
  const bfv::BfvContext ctx(params);
  const auto cfg = flash::core::high_accuracy_approx_config(params.n, params.t);
  const auto w = seeded_weights(3, 23, 3, 5);  // 14x14 patch: 3 channel tiles
  flash::protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kApproxFft, cfg, /*seed=*/1);
  const auto prepared = proto.prepare_weights(14, 14, w);
  ASSERT_EQ(prepared->spec.size(), 3u);
  ASSERT_EQ(prepared->spec[0].size(), 3u);

  flash::analysis::HConvUnitDesc desc;
  desc.params = params;
  desc.backend = bfv::PolyMulBackend::kApproxFft;
  desc.approx_config = cfg;
  desc.in_c = 23;
  desc.in_h = 14;
  desc.in_w = 14;
  desc.weights = w;
  desc.spectra = &prepared->spec;
  const auto own = flash::analysis::certify_hconv_unit(desc);
  desc.spectra = nullptr;
  expect_same_cert(own, flash::analysis::certify_hconv_unit(desc), "prepared vs recomputed");

  const auto rejects = [&](std::vector<std::vector<bfv::PlainSpectrum>> spectra,
                           const char* what) {
    desc.spectra = &spectra;
    EXPECT_THROW(flash::analysis::certify_hconv_unit(desc), std::invalid_argument) << what;
    desc.spectra = nullptr;
  };
  auto rows = prepared->spec;
  rows.pop_back();
  rejects(rows, "a row short");
  auto tiles = prepared->spec;
  tiles[1].pop_back();
  rejects(tiles, "an entry short");
  auto length = prepared->spec;
  length[2][1].fft.resize(params.n / 2 - 1);
  rejects(length, "a spectrum not n/2 long");
  auto backend = prepared->spec;
  backend[0][0].backend = bfv::PolyMulBackend::kFft;
  rejects(backend, "a spectrum of another backend");

  // Spectra are an input of the kApproxFft ledger only.
  desc.backend = bfv::PolyMulBackend::kFft;
  desc.approx_config.reset();
  rejects(prepared->spec, "spectra on kFft");
}

}  // namespace
