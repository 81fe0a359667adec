#include "testing/oracle.hpp"

#include <cmath>
#include <complex>
#include <deque>
#include <sstream>

#include "analysis/fxp_analyzer.hpp"
#include "bfv/context.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "core/scratch.hpp"
#include "dse/space.hpp"
#include "hemath/ntt.hpp"
#include "hemath/pow2.hpp"
#include "protocol/conv_runner.hpp"
#include "serve/conv_server.hpp"
#include "serve/network_session.hpp"
#include "shard/shard_router.hpp"
#include "sparsefft/executor.hpp"
#include "tensor/conv.hpp"

namespace flash::testing {

namespace {

using hemath::add_mod;
using hemath::from_signed;
using hemath::mul_mod;
using hemath::to_signed;

OracleReport fail(const std::string& check, const std::string& detail) {
  return OracleReport{false, check, detail};
}

std::string coeff_mismatch(std::size_t i, u64 got, u64 want) {
  std::stringstream out;
  out << "coeff " << i << ": got " << got << ", want " << want;
  return out.str();
}

/// ct x w through the engine's served pipeline: one cipher transform, one
/// multiply-accumulate, one inverse.
hemath::Poly product(const bfv::PolyMulEngine& engine, const hemath::Poly& ct,
                     const bfv::PlainSpectrum& w) {
  bfv::SpectralAccumulator acc;
  engine.multiply_accumulate(engine.transform_cipher_spectrum(ct), w, acc);
  return engine.finalize(acc);
}

/// The mac-block-vs-single arm: five outputs (weights derived from `w`)
/// over two ciphertexts of both components, through the served block MAC
/// into scratch sums, against one single-output MAC per (output,
/// component): finalized polynomials and pointwise_products must agree.
OracleReport mac_block_vs_single(const bfv::BfvContext& ctx, const bfv::PolyMulEngine& engine,
                                 const std::vector<u64>& ct, const std::vector<i64>& w) {
  const auto& p = ctx.params();
  const std::size_t n = p.n;
  constexpr std::size_t kOutputs = 5;
  std::vector<bfv::PlainSpectrum> ws;
  for (std::size_t b = 0; b < kOutputs; ++b) {
    bfv::Plaintext pt = ctx.make_plaintext();
    const i64 sign = b % 2 == 0 ? 1 : -1;
    for (std::size_t i = 0; i < n; ++i) pt.poly[i] = from_signed(sign * w[(i + b) % n], p.t);
    ws.push_back(engine.transform_plain(pt));
  }
  // Two ciphertexts: the case's and a derived one, each as (c0, c1).
  std::vector<hemath::Poly> polys;
  for (std::size_t j = 0; j < 4; ++j) {
    hemath::Poly poly(p.q, n);
    for (std::size_t i = 0; i < n; ++i) poly[i] = add_mod(ct[(i * (j + 1)) % n], j, p.q);
    polys.push_back(std::move(poly));
  }
  std::vector<bfv::CipherSpectrum> specs;
  for (const hemath::Poly& poly : polys) specs.push_back(engine.transform_cipher_spectrum(poly));

  const std::uint64_t before_block = engine.counters().pointwise_products;
  std::vector<hemath::Poly> block;
  {
    core::ScratchFrame frame(core::thread_scratch());
    const bfv::SpectralSums sums = engine.zeroed_sums(2 * kOutputs, frame);
    std::vector<const bfv::PlainSpectrum*> w_ptr;
    for (const auto& spec : ws) w_ptr.push_back(&spec);
    for (std::size_t i = 0; i < 2; ++i) {
      const bfv::CipherSpectrum* pair[] = {&specs[2 * i], &specs[2 * i + 1]};
      engine.multiply_accumulate_block(pair, w_ptr, sums);
    }
    for (std::size_t s = 0; s < 2 * kOutputs; ++s) block.push_back(engine.finalize(sums, s));
  }
  const std::uint64_t block_products = engine.counters().pointwise_products - before_block;

  const std::uint64_t before_single = engine.counters().pointwise_products;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t b = 0; b < kOutputs; ++b) {
      bfv::SpectralAccumulator acc;
      for (std::size_t i = 0; i < 2; ++i) engine.multiply_accumulate(specs[2 * i + c], ws[b], acc);
      const hemath::Poly single = engine.finalize(acc);
      const hemath::Poly& got = block[c * kOutputs + b];
      for (std::size_t k = 0; k < n; ++k) {
        if (got[k] != single[k]) {
          return fail("mac-block-vs-single", "output " + std::to_string(b) + " component " +
                                                 std::to_string(c) + ": " +
                                                 coeff_mismatch(k, got[k], single[k]));
        }
      }
    }
  }
  const std::uint64_t single_products = engine.counters().pointwise_products - before_single;
  if (block_products != single_products) {
    return fail("mac-block-vs-single", "block counted " + std::to_string(block_products) +
                                           " pointwise products, singles " +
                                           std::to_string(single_products));
  }
  return OracleReport{};
}

/// The encrypt-batch-vs-single arm: 1..9 messages derived from `w`,
/// encrypted as one lane group (bfv::encrypt_batch) and one at a time
/// (Encryptor::encrypt) under the same derived streams: every ciphertext
/// must agree bit for bit and decrypt to its message.
OracleReport encrypt_batch_vs_single(const bfv::BfvContext& ctx, const std::vector<i64>& w,
                                     std::uint64_t seed) {
  const auto& p = ctx.params();
  hemath::Sampler key_stream(hemath::derive_stream_seed(seed, 0));
  bfv::KeyGenerator keygen(ctx, key_stream);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PreparedPublicKey pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  const bfv::Decryptor dec(ctx, sk);
  const std::size_t k = 1 + seed % 9;
  std::vector<bfv::Plaintext> pts(k, ctx.make_plaintext());
  std::vector<const u64*> messages(k);
  std::vector<hemath::Sampler> streams;
  for (std::size_t j = 0; j < k; ++j) {
    const i64 sign = j % 2 == 0 ? 1 : -1;
    for (std::size_t i = 0; i < p.n; ++i) {
      pts[j].poly[i] = from_signed(sign * w[(i + j) % p.n] + static_cast<i64>(j), p.t);
    }
    messages[j] = pts[j].poly.coeffs().data();
    streams.emplace_back(hemath::derive_stream_seed(seed, j + 1));
  }
  std::vector<bfv::Ciphertext> batch(k);
  bfv::encrypt_batch(ctx, pk, messages, streams, batch);
  for (std::size_t j = 0; j < k; ++j) {
    hemath::Sampler stream(hemath::derive_stream_seed(seed, j + 1));
    const bfv::Ciphertext single = bfv::Encryptor(ctx, stream).encrypt(pts[j], pk);
    if (batch[j].c0 != single.c0 || batch[j].c1 != single.c1) {
      return fail("encrypt-batch-vs-single", "ciphertext " + std::to_string(j) + " of " +
                                                 std::to_string(k) +
                                                 " differs from its single encryption");
    }
    const bfv::Plaintext got = dec.decrypt(batch[j]);
    for (std::size_t i = 0; i < p.n; ++i) {
      if (got.poly[i] != pts[j].poly[i]) {
        return fail("encrypt-batch-vs-single", "ciphertext " + std::to_string(j) +
                                                   " decrypts wrong: " +
                                                   coeff_mismatch(i, got.poly[i], pts[j].poly[i]));
      }
    }
  }
  return OracleReport{};
}

/// Degrade the CSD twiddle quantization to a single digit of depth 2 — far
/// outside any sane design point, but structurally the same arithmetic.
void inject_twiddle_fault(fft::FxpFftConfig& config) {
  config.twiddle_k = 1;
  config.twiddle_min_exp = -2;
}

/// The skip-vs-dense arm: skip mode on the weight's folded pattern against
/// dense forward_into, over five sign-alternated copies of `w`.
OracleReport skip_vs_dense(const fft::FxpNegacyclicTransform& fxp, const std::vector<double>& w,
                           FaultInjection fault) {
  const std::size_t n = w.size(), m = n / 2;
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < m; ++s) {
    if (w[s] != 0.0 || w[s + m] != 0.0) live.push_back(s);
  }
  const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, std::move(live)));
  constexpr std::size_t kLanes = 5;
  std::vector<std::vector<double>> lanes(kLanes, w);
  std::vector<std::vector<fft::cplx>> dense(kLanes, std::vector<fft::cplx>(m));
  std::vector<std::vector<fft::cplx>> skip(kLanes, std::vector<fft::cplx>(m));
  std::vector<const double*> in(kLanes);
  std::vector<fft::cplx*> out(kLanes);
  fft::FxpFftStats dense_stats, skip_stats;
  for (std::size_t b = 0; b < kLanes; ++b) {
    if (b % 2 == 1) {
      for (double& v : lanes[b]) v = -v;
    }
    fxp.forward_into(lanes[b], dense[b], &dense_stats);
    in[b] = lanes[b].data();
    out[b] = skip[b].data();
  }
  fft::testing_hooks::set_fxp_odd_symmetric_mul_only(fault ==
                                                     FaultInjection::kMulOnlyOddSymmetric);
  fxp.forward_batch_into(in, out, &skip_stats, nullptr, &plan.schedule());
  fft::testing_hooks::set_fxp_odd_symmetric_mul_only(false);
  for (std::size_t b = 0; b < kLanes; ++b) {
    for (std::size_t i = 0; i < m; ++i) {
      if (skip[b][i] != dense[b][i]) {
        std::stringstream detail;
        detail << "lane " << b << " spectrum element " << i << ": skip " << skip[b][i]
               << " vs dense " << dense[b][i];
        return fail("skip-vs-dense", detail.str());
      }
    }
  }
  if (skip_stats.saturations != dense_stats.saturations ||
      skip_stats.stage_peak_mantissa != dense_stats.stage_peak_mantissa) {
    return fail("skip-vs-dense", "saturation count or stage peaks differ from dense");
  }
  return OracleReport{};
}

}  // namespace

OracleReport PolymulOracle::run(const PolymulCase& c) const {
  const auto& p = c.params;
  const std::size_t n = p.n;
  bfv::BfvContext ctx(p);

  bfv::Plaintext pt = ctx.make_plaintext();
  for (std::size_t i = 0; i < n; ++i) pt.poly[i] = from_signed(c.w[i], p.t);
  const hemath::Poly ct(p.q, c.ct);

  // Reference: the exact NTT engine (what SEAL/F1/CHAM compute).
  const bfv::PolyMulEngine ntt_engine(ctx, bfv::PolyMulBackend::kNtt);
  const hemath::Poly ref = product(ntt_engine, ct, ntt_engine.transform_plain(pt));

  // Weight lifted to signed representatives mod q (the engines' lift).
  std::vector<u64> w_lifted(n);
  for (std::size_t i = 0; i < n; ++i) w_lifted[i] = from_signed(c.w[i], p.q);

  // --- 1. Ground truth: schoolbook mod-q negacyclic product (small n). ---
  if (n <= 512) {
    const std::vector<u64> sb = hemath::negacyclic_multiply_schoolbook(p.q, c.ct, w_lifted);
    for (std::size_t i = 0; i < n; ++i) {
      if (sb[i] != ref[i]) return fail("ntt-vs-schoolbook", coeff_mismatch(i, ref[i], sb[i]));
    }
  }

  // --- 2. Batched SoA transforms: bit-equal to a loop of singles at the
  // active dispatch level (the cross-level tier pins the level per run). ---
  {
    const hemath::NttTables& tables = ctx.ntt();
    // Five lanes (full 4-group + remainder) derived from the case operands.
    std::vector<std::vector<u64>> lanes(5, c.ct);
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      for (std::size_t i = 0; i < n; ++i) {
        lanes[b][i] = hemath::add_mod(c.ct[i], hemath::mul_mod(b, w_lifted[i], p.q), p.q);
      }
    }
    std::vector<std::vector<u64>> singles = lanes;
    for (auto& l : singles) tables.forward(l);
    std::vector<std::vector<u64>> batch = lanes;
    std::vector<u64*> ptrs(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) ptrs[b] = batch[b].data();
    tables.forward_batch_into(ptrs);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[b][i] != singles[b][i]) {
          return fail("ntt-batch-vs-singles", "lane " + std::to_string(b) + ": " +
                                                  coeff_mismatch(i, batch[b][i], singles[b][i]));
        }
      }
    }
    // Inverse batch on the forward outputs must round back identically.
    for (auto& l : singles) tables.inverse(l);
    tables.inverse_batch_into(ptrs);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[b][i] != singles[b][i]) {
          return fail("ntt-batch-vs-singles", "inverse lane " + std::to_string(b) + ": " +
                                                  coeff_mismatch(i, batch[b][i], singles[b][i]));
        }
      }
    }
  }

  // --- 2b. Z_{2^k} mask-reduce backend: bit-equal to schoolbook mod 2^k. ---
  // The ring width is derived from the case seed among widths spanning the
  // sub-32-bit, equal-to-NTT-width and near-64 wrap regimes; the same case
  // operands are reduced into the ring, so the whole generator corpus (sparse
  // patterns, densified shrinks, every n) exercises this arm. There is no
  // transform to cross-check mod 2^k — this schoolbook comparison IS the
  // correctness proof the Karatsuba path rests on (ARCHITECTURE.md §14).
  {
    const bool mask_fault = options_.fault == FaultInjection::kPow2MaskWidth;
    const bool carry_fault = options_.fault == FaultInjection::kPow2CarryTruncation;
    std::vector<int> ks;
    for (const int k : {16, 32, 49, 60, 62}) {
      // k - 1 must also satisfy q > 2t so the mask-width fault stays a valid
      // (but wrong) parameter set.
      if ((k >= 64 || (u64{1} << (k - 1)) > 2 * p.t) && (!carry_fault || k > 33)) ks.push_back(k);
    }
    if (!ks.empty()) {
      const int k = ks[static_cast<std::size_t>(c.spec.seed % ks.size())];
      const hemath::Pow2Ring ring(k);

      std::vector<u64> ct2(n), w2(n);
      for (std::size_t i = 0; i < n; ++i) {
        ct2[i] = ring.reduce(c.ct[i]);
        w2[i] = ring.from_signed(c.w[i]);
      }
      std::vector<u64> sb(n);
      hemath::negacyclic_mul_pow2_schoolbook(ct2.data(), w2.data(), sb.data(), n, ring);

      // The engine under (possibly injected) test: a mask-width fault builds
      // it one bit narrow; a carry fault truncates its ciphertext operand.
      bfv::BfvParams pp;
      pp.n = n;
      pp.t = p.t;
      pp.q = u64{1} << (mask_fault ? k - 1 : k);
      bfv::BfvContext pctx(pp);
      const bfv::PolyMulEngine pow2_engine(pctx, bfv::PolyMulBackend::kPow2);

      bfv::Plaintext pt2 = pctx.make_plaintext();
      for (std::size_t i = 0; i < n; ++i) pt2.poly[i] = from_signed(c.w[i], pp.t);
      std::vector<u64> ct_in = ct2;
      if (carry_fault) {
        for (auto& v : ct_in) v &= 0xFFFFFFFFull;
      }
      const hemath::Poly ct_poly2(pp.q, ct_in);

      const hemath::Poly out = product(pow2_engine, ct_poly2, pow2_engine.transform_plain(pt2));
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i] != sb[i]) {
          return fail("pow2-vs-schoolbook",
                      "k " + std::to_string(k) + ": " + coeff_mismatch(i, out[i], sb[i]));
        }
      }

      // Batched SoA path: five derived lanes, bit-equal to a loop of singles
      // (mirrors check 2b for the NTT backends).
      {
        std::vector<std::vector<u64>> lanes(5, ct2);
        for (std::size_t b = 0; b < lanes.size(); ++b) {
          for (std::size_t i = 0; i < n; ++i) {
            lanes[b][i] = ring.add(ct2[i], ring.mul(b, w2[i]));
          }
        }
        std::vector<std::vector<u64>> batch_out(lanes.size(), std::vector<u64>(n));
        std::vector<const u64*> in_ptrs(lanes.size());
        std::vector<u64*> out_ptrs(lanes.size());
        for (std::size_t b = 0; b < lanes.size(); ++b) {
          in_ptrs[b] = lanes[b].data();
          out_ptrs[b] = batch_out[b].data();
        }
        hemath::negacyclic_mul_pow2_batch_into(in_ptrs, w2.data(), out_ptrs, n, ring);
        for (std::size_t b = 0; b < lanes.size(); ++b) {
          const std::vector<u64> single = hemath::negacyclic_mul_pow2(lanes[b], w2, ring);
          for (std::size_t i = 0; i < n; ++i) {
            if (batch_out[b][i] != single[i]) {
              return fail("pow2-batch-vs-singles",
                          "k " + std::to_string(k) + " lane " + std::to_string(b) + ": " +
                              coeff_mismatch(i, batch_out[b][i], single[i]));
            }
          }
        }
      }
    }
  }

  // --- 3. Double-precision FFT engine: within the FP rounding margin. ---
  // Product coefficients reach (q/2) * max_w * nnz, which can exceed the
  // 53-bit window where doubles round exactly, so the honest contract is a
  // deviation bound of a few ulps at that magnitude — still ~2^25x smaller
  // than the q/(2t) quantum that decryption rounds away (the level at which
  // the seed's BackendEquivalence test proves exact agreement), so any real
  // transform bug lands far outside it.
  const double product_magnitude = 0.5 * static_cast<double>(p.q) * static_cast<double>(c.max_w) *
                                   static_cast<double>(std::max<std::size_t>(c.nnz, 1));
  const double fp_tol =
      std::max(1.5, std::ldexp(product_magnitude, -52) * std::log2(static_cast<double>(n)));
  const auto fp_deviation_check = [&](const char* check, const hemath::Poly& out,
                                      const hemath::Poly& want) -> OracleReport {
    for (std::size_t i = 0; i < n; ++i) {
      const double dev =
          static_cast<double>(to_signed(hemath::sub_mod(out[i], want[i], p.q), p.q));
      if (std::abs(dev) > fp_tol) {
        std::stringstream detail;
        detail << coeff_mismatch(i, out[i], want[i]) << " (deviation " << dev
               << " exceeds FP margin " << fp_tol << ")";
        return fail(check, detail.str());
      }
    }
    return OracleReport{};
  };

  const bfv::PolyMulEngine fft_engine(ctx, bfv::PolyMulBackend::kFft);
  {
    const hemath::Poly out = product(fft_engine, ct, fft_engine.transform_plain(pt));
    const OracleReport r = fp_deviation_check("fft-vs-ntt", out, ref);
    if (!r.ok) return r;
  }

  // --- 3b. The served block MAC equals single-output MACs, bit for bit, on
  //         every spectral backend. ---
  {
    const bfv::PolyMulEngine approx_engine(ctx, bfv::PolyMulBackend::kApproxFft,
                                           core::default_approx_config(n, p.t));
    for (const bfv::PolyMulEngine* engine : {&ntt_engine, &fft_engine, &approx_engine}) {
      const OracleReport r = mac_block_vs_single(ctx, *engine, c.ct, c.w);
      if (!r.ok) return r;
    }
  }

  // --- 3c. A lane group of encryptions equals single encryptions under the
  //         same streams, and each decrypts exactly. ---
  {
    const OracleReport r = encrypt_batch_vs_single(ctx, c.w, c.spec.seed);
    if (!r.ok) return r;
  }

  // Shared FP-side ingredients for the sparse and approximate checks.
  std::vector<double> w_real(n);
  for (std::size_t i = 0; i < n; ++i) w_real[i] = static_cast<double>(c.w[i]);
  const std::vector<fft::cplx> exact_spec = ctx.fft().forward(w_real);
  const std::vector<fft::cplx> ct_spec = fft_engine.transform_cipher_spectrum(ct).fft;

  // --- 4. Sparse planner/executor: skipping and merging are exact. ---
  {
    const std::vector<fft::cplx> z = ctx.fft().fold(w_real);
    const auto pattern = sparsefft::SparsityPattern::from_values(z);
    const sparsefft::SparseFftPlan plan(n / 2, pattern);
    const std::vector<fft::cplx> sparse_spec = sparsefft::execute(plan, z);

    std::vector<fft::cplx> prod(n / 2);
    for (std::size_t i = 0; i < n / 2; ++i) prod[i] = ct_spec[i] * sparse_spec[i];
    const hemath::Poly out = fft_engine.inverse_to_poly(prod);
    // Same double-precision pipeline as the dense FFT engine (different
    // operation order), hence the same FP margin rather than bit-equality.
    const OracleReport r = fp_deviation_check("sparse-vs-ntt", out, ref);
    if (!r.ok) return r;

    // Merged (lazy-twiddle) execution: same spectrum, and the number of
    // multiplications issued must equal the plan's merged accounting.
    std::uint64_t mults = 0;
    const std::vector<fft::cplx> merged = sparsefft::execute_merged(plan, z, &mults);
    if (mults != plan.cost().merged_mults) {
      std::stringstream detail;
      detail << "issued " << mults << " mults, plan accounted " << plan.cost().merged_mults;
      return fail("merged-mult-count", detail.str());
    }
    double scale = 1.0;
    for (const auto& s : sparse_spec) scale = std::max(scale, std::abs(s));
    for (std::size_t i = 0; i < n / 2; ++i) {
      if (std::abs(merged[i] - sparse_spec[i]) > 1e-9 * scale) {
        std::stringstream detail;
        detail << "spectrum element " << i << " differs by " << std::abs(merged[i] - sparse_spec[i]);
        return fail("merged-vs-sparse", detail.str());
      }
    }
  }

  // --- 5. Approximate FXP FFT: error within the dse/error_model budget,
  //        and the output deviation exactly explained by the weight-spectrum
  //        deviation (two design points: the budget point under test and the
  //        full-precision corner). ---
  const dse::DesignSpace space(n / 2, dse::SpaceBounds{});
  const dse::ErrorModel model = dse::ErrorModel::from_weight_stats(
      n, std::max<std::size_t>(c.nnz, 1), static_cast<double>(c.max_w));

  dse::DesignPoint budget_point;
  budget_point.stage_widths.assign(static_cast<std::size_t>(space.stages()), options_.approx_width);
  budget_point.twiddle_k = options_.approx_twiddle_k;

  for (const dse::DesignPoint& point : {budget_point, space.full_precision()}) {
    fft::FxpFftConfig config = space.to_config(point, model.input_max_abs());
    if (options_.fault == FaultInjection::kTwiddleQuantization) inject_twiddle_fault(config);
    const double predicted = model.predict_variance(space, point);

    const bfv::PolyMulEngine approx_engine(ctx, bfv::PolyMulBackend::kApproxFft, config);
    const bfv::PlainSpectrum w_approx = approx_engine.transform_plain(pt);

    // (a) Spectrum error variance within the analytical budget.
    double mse = 0.0;
    for (std::size_t i = 0; i < n / 2; ++i) mse += std::norm(w_approx.fft[i] - exact_spec[i]);
    mse /= static_cast<double>(n / 2);
    if (mse > predicted * options_.budget_slack) {
      std::stringstream detail;
      detail << "width " << point.stage_widths.front() << " k " << point.twiddle_k
             << ": measured spectrum error variance " << mse << " exceeds predicted " << predicted
             << " x slack " << options_.budget_slack;
      return fail("approx-error-budget", detail.str());
    }

    // (b) Output deviation == inverse transform of the spectrum deviation.
    // Error propagation through the (exact-FP) pointwise product and inverse
    // transform is linear, so the observed integer deviation from the NTT
    // reference must equal round(F^-1[(W_approx - W) .* CT]) to within the
    // two roundings involved.
    std::vector<fft::cplx> err_spec(n / 2);
    for (std::size_t i = 0; i < n / 2; ++i) err_spec[i] = (w_approx.fft[i] - exact_spec[i]) * ct_spec[i];
    const std::vector<double> err_out = ctx.fft().inverse(err_spec);
    const hemath::Poly out = product(approx_engine, ct, w_approx);
    for (std::size_t i = 0; i < n; ++i) {
      const i64 observed = to_signed(hemath::sub_mod(out[i], ref[i], p.q), p.q);
      const double expected = err_out[i];
      const double tol = 2.0 + 1e-9 * std::abs(expected);
      if (std::abs(static_cast<double>(observed) - expected) > tol) {
        std::stringstream detail;
        detail << "width " << point.stage_widths.front() << " coeff " << i << ": observed deviation "
               << observed << " vs spectrum-explained " << expected;
        return fail("approx-propagation", detail.str());
      }
    }

    // (c) Static/dynamic cross-check: the interval analyzer's proven
    // per-stage mantissa bounds must dominate the peaks this transform
    // actually produced (soundness tripwire for the analyzer — and for the
    // simulator, since both walk the same dataflow with the same quantized
    // tables, including any injected fault).
    analysis::AnalyzerOptions aopts;
    aopts.input_max_abs = model.coefficient_max_abs();
    const analysis::AnalysisResult proven = analysis::analyze_negacyclic(n, config, aopts);
    fft::FxpFftStats fxp_stats;
    const fft::FxpNegacyclicTransform fxp(n, config);
    fxp.forward(w_real, &fxp_stats);
    if (const analysis::StageReport* v = analysis::first_interval_violation(proven, fxp_stats)) {
      std::stringstream detail;
      detail << "width " << point.stage_widths.front() << " stage " << v->stage
             << ": observed peak mantissa "
             << fxp_stats.stage_peak_mantissa[static_cast<std::size_t>(v->stage)]
             << " exceeds proven bound " << v->mantissa_bound;
      return fail("approx-outside-proven-interval", detail.str());
    }

    // (d) Skip mode vs dense: the served weight transform runs only the
    // live butterflies of the weight's folded pattern, here on five
    // sign-alternated copies of w (on AVX2 a 4-lane group and the scalar
    // loop; on AVX-512 one 8-lane group with three padded lanes). Spectra,
    // saturations and stage peaks must be the dense transform's, bit for
    // bit.
    {
      const OracleReport r = skip_vs_dense(fxp, w_real, options_.fault);
      if (!r.ok) {
        return fail(r.check, "width " + std::to_string(point.stage_widths.front()) + ": " +
                                 r.detail);
      }
    }
  }

  return OracleReport{};
}

OracleReport HConvOracle::run(const ConvCase& c) const {
  bfv::BfvContext ctx(c.params);
  const u64 t = c.params.t;
  const tensor::Tensor3 expect = tensor::conv2d(
      c.x, c.weights, tensor::ConvSpec{c.spec.stride, static_cast<std::size_t>(c.spec.pad)});

  fft::FxpFftConfig approx_cfg = core::high_accuracy_approx_config(c.params.n, t);
  if (options_.fault == FaultInjection::kTwiddleQuantization) inject_twiddle_fault(approx_cfg);

  struct BackendRun {
    const char* name;
    bfv::PolyMulBackend backend;
    std::optional<fft::FxpFftConfig> config;
  };
  const BackendRun runs[] = {
      {"ntt", bfv::PolyMulBackend::kNtt, std::nullopt},
      {"fft", bfv::PolyMulBackend::kFft, std::nullopt},
      {"approx-fft", bfv::PolyMulBackend::kApproxFft, approx_cfg},
  };

  std::optional<protocol::ConvRunnerResult> first;
  const char* first_name = nullptr;
  for (const BackendRun& run : runs) {
    protocol::HConvProtocol proto(ctx, run.backend, run.config, c.spec.seed);
    protocol::ConvRunner runner(proto);
    const protocol::ConvRunnerResult result =
        runner.run(c.x, c.weights, c.spec.stride, static_cast<std::size_t>(c.spec.pad));

    if (result.reconstruct(t).data() != expect.data()) {
      return fail(std::string("hconv-") + run.name + "-vs-cleartext",
                  "reconstructed shares disagree with direct conv2d (" + c.spec.describe() + ")");
    }
    if (!first) {
      first = result;
      first_name = run.name;
    } else {
      // Shares — not just reconstructions — are backend-independent: masks
      // come from the seeded streams, and the exact backends agree bit-wise.
      if (result.client_share.data() != first->client_share.data() ||
          result.server_share.data() != first->server_share.data()) {
        return fail(std::string("hconv-shares-") + run.name,
                    std::string("party shares differ from the ") + first_name + " backend");
      }
    }
  }
  return OracleReport{};
}

namespace {

/// Sharded backend of run_trace: the same trace, submissions and
/// bit-identity bar, but served by a ShardRouter over forked workers.
OracleReport run_trace_sharded(const ServeTrace& trace, std::size_t max_batch,
                               std::size_t shards, std::size_t kill_shard_every) {
  shard::RouterOptions ropts;
  ropts.shards = shards;
  ropts.certify = serve::CertifyPolicy::kWarn;
  ropts.worker_max_batch = max_batch;
  shard::ShardRouter router(ropts);

  std::vector<shard::ShardPlanId> plan_ids;
  for (const ConvCase& layer : trace.plan_cases) {
    wire::PlanSpecWire spec;
    spec.params = layer.params;
    spec.backend = bfv::PolyMulBackend::kNtt;
    spec.protocol_seed = layer.spec.seed;
    spec.weights = layer.weights;
    spec.stride = layer.spec.stride;
    spec.pad = static_cast<std::size_t>(layer.spec.pad);
    spec.in_h = layer.spec.h;
    spec.in_w = layer.spec.w;
    plan_ids.push_back(router.register_plan(spec));
  }

  std::vector<shard::ShardFuture> futures;
  std::size_t next_victim = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    shard::ShardSubmitOptions opts;
    opts.stream = i;  // pin the determinism key to the trace position
    futures.push_back(
        router.submit(plan_ids[trace.requests[i].plan], trace.requests[i].x, opts));
    if (kill_shard_every != 0 && (i + 1) % kill_shard_every == 0) {
      // Chaos injection: SIGKILL a rotating worker mid-trace. Recovery
      // (respawn + registration replay + resend) must be bit-invisible.
      router.kill_worker(next_victim % shards);
      next_victim++;
    }
  }
  router.drain();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeTrace::Request& req = trace.requests[i];
    const ConvCase& layer = trace.plan_cases[req.plan];
    if (futures[i].state() != shard::ShardRequestState::kDone) {
      return fail("shard-trace-request-state",
                  "request " + std::to_string(i) + " ended " +
                      shard::to_string(futures[i].state()) + " (" + futures[i].error() +
                      "), shards=" + std::to_string(shards) + ", " + trace.spec.describe());
    }
    const protocol::ConvRunnerResult& served = futures[i].result();

    // Serial reference: a fresh protocol with the plan's seed, same stream.
    bfv::BfvContext ctx(layer.params);
    protocol::HConvProtocol proto(ctx, bfv::PolyMulBackend::kNtt, std::nullopt, layer.spec.seed);
    protocol::ConvRunner runner(proto);
    const protocol::ConvRunnerResult serial =
        runner.run(req.x, layer.weights, layer.spec.stride,
                   static_cast<std::size_t>(layer.spec.pad), static_cast<std::uint64_t>(i) << 32);
    if (served.client_share.data() != serial.client_share.data() ||
        served.server_share.data() != serial.server_share.data()) {
      return fail("shard-trace-vs-serial",
                  "request " + std::to_string(i) + " shares differ from the serial run (shards=" +
                      std::to_string(shards) + ", " + trace.spec.describe() + ")");
    }

    const tensor::Tensor3 expect =
        tensor::conv2d(req.x, layer.weights,
                       tensor::ConvSpec{layer.spec.stride,
                                        static_cast<std::size_t>(layer.spec.pad)});
    if (served.reconstruct(layer.params.t).data() != expect.data()) {
      return fail("shard-trace-vs-cleartext",
                  "request " + std::to_string(i) + " disagrees with direct conv2d (shards=" +
                      std::to_string(shards) + ", " + trace.spec.describe() + ")");
    }
  }

  // Conservation through every path, kills included: each submitted request
  // reached exactly one terminal outcome, and all of them completed.
  const shard::RouterMetrics& m = router.metrics();
  if (m.terminal() != m.submitted.value()) {
    return fail("shard-trace-metrics-conservation",
                std::to_string(m.submitted.value()) + " submitted but " +
                    std::to_string(m.terminal()) + " terminal outcomes");
  }
  if (m.completed.value() != trace.requests.size()) {
    return fail("shard-trace-metrics-completed",
                std::to_string(m.completed.value()) + " completed, expected " +
                    std::to_string(trace.requests.size()));
  }
  // A trace shorter than the kill period never reaches a kill point, so only
  // traces with at least one scheduled kill must show one.
  if (kill_shard_every != 0 && trace.requests.size() >= kill_shard_every &&
      m.kills.value() == 0) {
    return fail("shard-trace-chaos-armed", "chaos requested but no kill was injected");
  }
  return OracleReport{};
}

}  // namespace

OracleReport HConvOracle::run_trace(const ServeTrace& trace, std::size_t dispatchers,
                                    std::size_t max_batch, std::size_t shards,
                                    std::size_t kill_shard_every) const {
  if (shards != 0) return run_trace_sharded(trace, max_batch, shards, kill_shard_every);

  // One context per plan (plans may carry different parameter sets); deque
  // keeps addresses stable for the non-owning PlanSpec pointers.
  std::deque<bfv::BfvContext> contexts;

  serve::ServerOptions sopts;
  sopts.max_queue = trace.requests.size();
  sopts.max_batch = max_batch;
  sopts.dispatchers = dispatchers;
  serve::ConvServer server(sopts);

  std::vector<serve::PlanId> plan_ids;
  for (const ConvCase& layer : trace.plan_cases) {
    contexts.emplace_back(layer.params);
    serve::PlanSpec spec;
    spec.ctx = &contexts.back();
    spec.backend = bfv::PolyMulBackend::kNtt;
    spec.protocol_seed = layer.spec.seed;
    spec.weights = layer.weights;
    spec.stride = layer.spec.stride;
    spec.pad = static_cast<std::size_t>(layer.spec.pad);
    spec.in_h = layer.spec.h;
    spec.in_w = layer.spec.w;
    plan_ids.push_back(server.register_plan(spec));
  }

  std::vector<serve::ConvFuture> futures;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    serve::SubmitOptions opts;
    opts.stream = i;  // pin the determinism key to the trace position
    futures.push_back(server.submit(plan_ids[trace.requests[i].plan], trace.requests[i].x, opts));
  }
  server.drain();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeTrace::Request& req = trace.requests[i];
    const ConvCase& layer = trace.plan_cases[req.plan];
    if (futures[i].state() != serve::RequestState::kDone) {
      return fail("trace-request-state",
                  "request " + std::to_string(i) + " ended " +
                      serve::to_string(futures[i].state()) + " (" + futures[i].error() + "), " +
                      trace.spec.describe());
    }
    const protocol::ConvRunnerResult& served = futures[i].result();

    // Serial reference: a fresh protocol with the plan's seed, same stream.
    protocol::HConvProtocol proto(contexts[req.plan], bfv::PolyMulBackend::kNtt, std::nullopt,
                                  layer.spec.seed);
    protocol::ConvRunner runner(proto);
    const protocol::ConvRunnerResult serial =
        runner.run(req.x, layer.weights, layer.spec.stride,
                   static_cast<std::size_t>(layer.spec.pad), static_cast<std::uint64_t>(i) << 32);
    if (served.client_share.data() != serial.client_share.data() ||
        served.server_share.data() != serial.server_share.data()) {
      return fail("trace-batched-vs-serial",
                  "request " + std::to_string(i) + " shares differ from the serial run (" +
                      trace.spec.describe() + ")");
    }

    const tensor::Tensor3 expect =
        tensor::conv2d(req.x, layer.weights,
                       tensor::ConvSpec{layer.spec.stride,
                                        static_cast<std::size_t>(layer.spec.pad)});
    if (served.reconstruct(layer.params.t).data() != expect.data()) {
      return fail("trace-vs-cleartext", "request " + std::to_string(i) +
                                            " disagrees with direct conv2d (" +
                                            trace.spec.describe() + ")");
    }
  }

  const serve::ServerMetrics& m = server.metrics();
  if (m.terminal() != m.submitted.value()) {
    return fail("trace-metrics-conservation",
                std::to_string(m.submitted.value()) + " submitted but " +
                    std::to_string(m.terminal()) + " terminal outcomes");
  }
  if (m.queue_depth.value() != 0 || m.inflight.value() != 0) {
    return fail("trace-metrics-drained", "queue_depth/inflight nonzero after drain");
  }
  if (m.completed.value() != trace.requests.size()) {
    return fail("trace-metrics-completed",
                std::to_string(m.completed.value()) + " completed, expected " +
                    std::to_string(trace.requests.size()));
  }
  return OracleReport{};
}

OracleReport HConvOracle::run_network_trace(const NetworkTrace& trace, std::size_t dispatchers,
                                            std::size_t max_batch) const {
  bfv::BfvContext ctx(trace.params);
  const std::size_t sessions = trace.spec.sessions;
  const std::size_t layers = trace.stack.layers.size();

  serve::ServerOptions sopts;
  sopts.max_queue = sessions * layers + 4;
  sopts.max_batch = max_batch;
  sopts.dispatchers = dispatchers;
  serve::ConvServer server(sopts);
  serve::NetworkServer net(server);

  auto program = std::make_shared<const serve::NetworkProgram>(serve::NetworkProgram::build(
      server, trace.stack, ctx, bfv::PolyMulBackend::kNtt, std::nullopt, trace.spec.seed,
      tensor::Shape3{trace.in_c, trace.in_h, trace.in_w}));

  std::vector<serve::NetworkSession> handles;
  for (std::size_t s = 0; s < sessions; ++s) {
    serve::SessionOptions opts;
    opts.stream_base = s * serve::kSessionStreamStride;
    opts.record_layer_outputs = true;
    handles.push_back(net.start(program, trace.inputs[s], opts));
  }
  net.run_to_completion();

  for (std::size_t s = 0; s < sessions; ++s) {
    if (handles[s].state() != serve::SessionState::kCompleted) {
      return fail("network-session-state",
                  "session " + std::to_string(s) + " ended " +
                      serve::to_string(handles[s].state()) + " (" + handles[s].error() + "), " +
                      trace.spec.describe());
    }

    // Serial reference: one bare protocol/runner, same seed and stream base.
    std::vector<tensor::Tensor3> serial_outputs;
    const tensor::NetworkResult serial = serve::run_network_serial(
        trace.stack, ctx, bfv::PolyMulBackend::kNtt, std::nullopt, trace.spec.seed,
        trace.inputs[s], s * serve::kSessionStreamStride, &serial_outputs);

    const std::vector<tensor::Tensor3> served_outputs = handles[s].layer_outputs();
    if (served_outputs.size() != serial_outputs.size()) {
      return fail("network-batched-vs-serial",
                  "session " + std::to_string(s) + " recorded " +
                      std::to_string(served_outputs.size()) + " layers, serial " +
                      std::to_string(serial_outputs.size()) + " (" + trace.spec.describe() + ")");
    }
    for (std::size_t l = 0; l < served_outputs.size(); ++l) {
      if (!(served_outputs[l] == serial_outputs[l])) {
        return fail("network-batched-vs-serial",
                    "session " + std::to_string(s) + " layer " + std::to_string(l) +
                        " differs from the serial run (" + trace.spec.describe() + ")");
      }
    }
    if (!(handles[s].features() == serial.features) ||
        handles[s].has_logits() != serial.has_logits || handles[s].logits() != serial.logits) {
      return fail("network-batched-vs-serial",
                  "session " + std::to_string(s) + " final features/logits differ (" +
                      trace.spec.describe() + ")");
    }

    // Cleartext reference: the HE path reconstructs exact sum-products, so
    // the whole network must agree bit-wise with the direct execution.
    const tensor::NetworkResult clear =
        trace.stack.forward(trace.inputs[s], tensor::LayerStack::reference_executor());
    if (!(clear.features == serial.features) || clear.logits != serial.logits) {
      return fail("network-vs-cleartext",
                  "session " + std::to_string(s) + " disagrees with cleartext forward (" +
                      trace.spec.describe() + ")");
    }
  }

  // Conservation, both levels: every conv request and every session reached
  // exactly one terminal outcome, and nothing is left queued or active.
  const serve::ServerMetrics& m = server.metrics();
  if (m.terminal() != m.submitted.value()) {
    return fail("network-metrics-conservation",
                std::to_string(m.submitted.value()) + " submitted but " +
                    std::to_string(m.terminal()) + " terminal outcomes");
  }
  if (m.completed.value() != sessions * program->conv_layers) {
    return fail("network-metrics-completed",
                std::to_string(m.completed.value()) + " conv requests completed, expected " +
                    std::to_string(sessions * program->conv_layers));
  }
  if (m.queue_depth.value() != 0 || m.inflight.value() != 0) {
    return fail("network-metrics-drained", "queue_depth/inflight nonzero after completion");
  }
  const serve::SessionMetrics& sm = net.session_metrics();
  if (sm.terminal() != sm.started.value() || sm.started.value() != sessions ||
      sm.completed.value() != sessions || sm.active.value() != 0) {
    return fail("network-session-conservation",
                std::to_string(sm.started.value()) + " started, " +
                    std::to_string(sm.completed.value()) + " completed, " +
                    std::to_string(sm.active.value()) + " active");
  }
  return OracleReport{};
}

}  // namespace flash::testing
