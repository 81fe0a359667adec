// CPU microbenchmarks (google-benchmark): the software cost of the
// transforms FLASH accelerates — exact NTT, double FFT, the bit-accurate
// approximate FXP FFT, the sparse dataflow executor, and a full ct x pt
// multiplication per backend.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <span>
#include <string>

#include "bench_json.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "core/flash_accelerator.hpp"
#include "core/scratch.hpp"
#include "encoding/encoder.hpp"
#include "fft/negacyclic.hpp"
#include "hemath/ntt.hpp"
#include "hemath/pointwise.hpp"
#include "hemath/pow2.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd.hpp"
#include "protocol/conv_geometry.hpp"
#include "sparsefft/executor.hpp"
#include "tensor/resnet.hpp"

namespace {

using namespace flash;

void BM_NttForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(1);
  std::vector<hemath::u64> a = sampler.uniform_poly(q, n).coeffs();
  for (auto _ : state) {
    std::vector<hemath::u64> b = a;
    tables.forward(b);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_NttForward)->Arg(2048)->Arg(4096);

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::NegacyclicFft fft(n);
  std::mt19937_64 rng(2);
  std::vector<double> a(n);
  for (auto& v : a) v = static_cast<double>(static_cast<int>(rng() % 255) - 127);
  for (auto _ : state) {
    auto spec = fft.forward(a);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FftForward)->Arg(2048)->Arg(4096);

void BM_FxpFftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 18));
  std::mt19937_64 rng(3);
  std::vector<double> a(n, 0.0);
  for (int i = 0; i < 72; ++i) a[rng() % n] = static_cast<double>(static_cast<int>(rng() % 15) - 7);
  for (auto _ : state) {
    auto spec = fxp.forward(a);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FxpFftForward)->Arg(2048)->Arg(4096);

/// Same transform with the SIMD level pinned to scalar: the vectorization
/// win is BM_FxpFftForward vs this, in one binary.
void BM_FxpFftForwardScalar(benchmark::State& state) {
  hemath::simd::ScopedSimdLevel scalar(hemath::simd::SimdLevel::kScalar);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 18));
  std::mt19937_64 rng(3);
  std::vector<double> a(n, 0.0);
  for (int i = 0; i < 72; ++i) a[rng() % n] = static_cast<double>(static_cast<int>(rng() % 15) - 7);
  for (auto _ : state) {
    auto spec = fxp.forward(a);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FxpFftForwardScalar)->Arg(2048)->Arg(4096);

/// Steady-state hot path: caller-owned output + thread scratch arena, zero
/// heap allocations per iteration after warmup.
void BM_FxpFftForwardInto(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 18));
  std::mt19937_64 rng(3);
  std::vector<double> a(n, 0.0);
  for (int i = 0; i < 72; ++i) a[rng() % n] = static_cast<double>(static_cast<int>(rng() % 15) - 7);
  std::vector<fft::cplx> spec(n / 2);
  core::ScratchArena& arena = core::thread_scratch();
  fxp.forward_into(a, spec, nullptr, &arena);  // warm the arena
  for (auto _ : state) {
    fxp.forward_into(a, spec, nullptr, &arena);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FxpFftForwardInto)->Arg(2048)->Arg(4096);

/// Batched SoA NTT: 8 polynomials per call (the AVX-512 group size; on an
/// AVX2 box this runs as two 4-lane groups). Reported time is per call, i.e.
/// per 8 transforms — compare against 8x BM_NttForward or the Singles
/// variant below.
void BM_NttForwardBatch8(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(1);
  std::vector<std::vector<hemath::u64>> polys(kBatch);
  for (auto& p : polys) p = sampler.uniform_poly(q, n).coeffs();
  std::vector<std::vector<hemath::u64>> work = polys;
  std::vector<hemath::u64*> ptrs(kBatch);
  core::ScratchArena& arena = core::thread_scratch();
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBatch; ++b) {
      work[b] = polys[b];
      ptrs[b] = work[b].data();
    }
    tables.forward_batch_into(ptrs, &arena);
    benchmark::DoNotOptimize(work[0].data());
  }
}
BENCHMARK(BM_NttForwardBatch8)->Arg(2048)->Arg(4096);

/// The same 8 transforms as a loop of single calls: the SoA win is
/// BM_NttForwardBatch8 vs this, in one binary.
void BM_NttForwardBatch8Singles(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(1);
  std::vector<std::vector<hemath::u64>> polys(kBatch);
  for (auto& p : polys) p = sampler.uniform_poly(q, n).coeffs();
  std::vector<std::vector<hemath::u64>> work = polys;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBatch; ++b) {
      work[b] = polys[b];
      tables.forward(work[b]);
    }
    benchmark::DoNotOptimize(work[0].data());
  }
}
BENCHMARK(BM_NttForwardBatch8Singles)->Arg(2048)->Arg(4096);

/// Batched FXP FFT (negacyclic weight transform datapath), 8 lanes per call.
void BM_FxpFftForwardBatch8Into(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 18));
  std::mt19937_64 rng(3);
  std::vector<std::vector<double>> a(kBatch, std::vector<double>(n, 0.0));
  for (auto& lane : a) {
    for (int i = 0; i < 72; ++i) lane[rng() % n] = static_cast<double>(static_cast<int>(rng() % 15) - 7);
  }
  std::vector<std::vector<fft::cplx>> spec(kBatch, std::vector<fft::cplx>(n / 2));
  std::vector<const double*> a_ptrs(kBatch);
  std::vector<fft::cplx*> spec_ptrs(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    a_ptrs[b] = a[b].data();
    spec_ptrs[b] = spec[b].data();
  }
  core::ScratchArena& arena = core::thread_scratch();
  fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                         std::span<fft::cplx* const>(spec_ptrs), nullptr, &arena);  // warm
  for (auto _ : state) {
    fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                           std::span<fft::cplx* const>(spec_ptrs), nullptr, &arena);
    benchmark::DoNotOptimize(spec[0].data());
  }
}
BENCHMARK(BM_FxpFftForwardBatch8Into)->Arg(2048)->Arg(4096);

/// Skip mode on the served weight path: eight encoded weight polynomials of
/// the cold layer (ResNet-18 layer2.0.downsample, the resnet18_cold_stage2
/// workload's layer) at the served 48-bit/k = 20 config, through its HConv
/// unit's plan — each polynomial folds onto a handful of live FFT inputs.
/// Compare BM_FxpFftForwardBatch8Into, which runs every butterfly.
void BM_FxpFftForwardBatch8Live(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 8;
  tensor::LayerConfig layer;
  for (const tensor::LayerConfig& l : tensor::resnet18_conv_layers()) {
    if (l.name == "layer2.0.downsample") layer = l;
  }
  tensor::Tensor4 w(kBatch, layer.in_c, layer.kernel, layer.kernel);
  std::mt19937_64 rng(3);
  for (auto& v : w.data()) v = static_cast<tensor::i64>(rng() % 15) - 7;
  const protocol::ConvUnit unit =
      protocol::enumerate_conv_units(n, layer.in_c, layer.in_h, layer.in_w, w, layer.stride,
                                     layer.pad)
          .front();
  const encoding::ConvEncoder enc(n, layer.in_c, unit.patch_h, unit.patch_w,
                                  unit.weights.kernel_h(), unit.weights.kernel_w());
  const sparsefft::SparseFftPlan plan(n / 2, encoding::folded_weight_pattern(enc.geometry()));
  fft::FxpNegacyclicTransform fxp(n, core::high_accuracy_approx_config(n, 1u << 20));
  std::vector<std::vector<double>> a(kBatch);
  std::vector<std::vector<fft::cplx>> spec(kBatch, std::vector<fft::cplx>(n / 2));
  std::vector<const double*> a_ptrs(kBatch);
  std::vector<fft::cplx*> spec_ptrs(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    const std::vector<tensor::i64> coeffs = enc.encode_weight(unit.weights, b, 0);
    a[b].assign(coeffs.begin(), coeffs.end());
    a_ptrs[b] = a[b].data();
    spec_ptrs[b] = spec[b].data();
  }
  core::ScratchArena& arena = core::thread_scratch();
  const fft::ButterflySchedule& live = plan.schedule();
  fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                         std::span<fft::cplx* const>(spec_ptrs), nullptr, &arena, &live);  // warm
  for (auto _ : state) {
    fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                           std::span<fft::cplx* const>(spec_ptrs), nullptr, &arena, &live);
    benchmark::DoNotOptimize(spec[0].data());
  }
}
BENCHMARK(BM_FxpFftForwardBatch8Live)->Arg(4096);

void BM_PointwiseMulmod(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  hemath::Sampler sampler(7);
  std::vector<hemath::u64> a = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> c(n);
  for (auto _ : state) {
    hemath::pointwise_mulmod(a.data(), b.data(), c.data(), n, q);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_PointwiseMulmod)->Arg(2048)->Arg(4096);

void BM_PointwiseMulmodScalar(benchmark::State& state) {
  hemath::simd::ScopedSimdLevel scalar(hemath::simd::SimdLevel::kScalar);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  hemath::Sampler sampler(7);
  std::vector<hemath::u64> a = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> c(n);
  for (auto _ : state) {
    hemath::pointwise_mulmod(a.data(), b.data(), c.data(), n, q);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_PointwiseMulmodScalar)->Arg(2048)->Arg(4096);

// Z_{2^k} pointwise mulmod at the same 49-bit width as the Barrett benches
// above — the headline micro claim of the pow2 backend is that one u64
// multiply plus one AND beats the Barrett multiply-high chain at equal width
// (the --backend pow2 self-gate in main() enforces it).
void BM_PointwiseMulmodPow2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::Pow2Ring ring(49);
  hemath::Sampler sampler(7);
  std::vector<hemath::u64> a = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> c(n);
  for (auto _ : state) {
    hemath::pointwise_mulmod_pow2(a.data(), b.data(), c.data(), n, ring);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_PointwiseMulmodPow2)->Arg(2048)->Arg(4096);

void BM_PointwiseMulmodPow2Scalar(benchmark::State& state) {
  hemath::simd::ScopedSimdLevel scalar(hemath::simd::SimdLevel::kScalar);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::Pow2Ring ring(49);
  hemath::Sampler sampler(7);
  std::vector<hemath::u64> a = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> c(n);
  for (auto _ : state) {
    hemath::pointwise_mulmod_pow2(a.data(), b.data(), c.data(), n, ring);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_PointwiseMulmodPow2Scalar)->Arg(2048)->Arg(4096);

// Full negacyclic Karatsuba product — the kPow2 engine's multiply cost (the
// backend has no spectral fast path; ARCHITECTURE.md section 14).
void BM_NegacyclicPow2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const hemath::Pow2Ring ring(49);
  hemath::Sampler sampler(8);
  std::vector<hemath::u64> a = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(hemath::u64{1} << 49, n).coeffs();
  std::vector<hemath::u64> c(n);
  core::ScratchArena& arena = core::thread_scratch();
  hemath::negacyclic_mul_pow2_into(a.data(), b.data(), c.data(), n, ring, &arena);  // warm
  for (auto _ : state) {
    hemath::negacyclic_mul_pow2_into(a.data(), b.data(), c.data(), n, ring, &arena);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_NegacyclicPow2)->Arg(2048)->Arg(4096);

void BM_SparseExecute(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0)) / 2;
  std::vector<std::size_t> pos;
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) pos.push_back((c * 256 + i * 16 + j) % m);
    }
  }
  sparsefft::SparsityPattern pattern(m, std::move(pos));
  sparsefft::SparseFftPlan plan(m, pattern);
  std::vector<fft::cplx> input(m, {0.0, 0.0});
  std::mt19937_64 rng(4);
  for (std::size_t p : pattern.nonzeros()) input[p] = {double(int(rng() % 15) - 7), 0.0};
  for (auto _ : state) {
    auto out = sparsefft::execute(plan, input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SparseExecute)->Arg(2048)->Arg(4096);

void BM_MultiplyPlain(benchmark::State& state) {
  static const bfv::BfvParams params = bfv::BfvParams::create(2048, 18, 48);
  static bfv::BfvContext ctx(params);
  static hemath::Sampler sampler(5);
  static bfv::KeyGenerator keygen(ctx, sampler);
  static const bfv::SecretKey sk = keygen.secret_key();
  static const bfv::PreparedPublicKey pk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  static bfv::Encryptor enc(ctx, sampler);

  const auto backend = static_cast<bfv::PolyMulBackend>(state.range(0));
  std::optional<fft::FxpFftConfig> cfg;
  if (backend == bfv::PolyMulBackend::kApproxFft) {
    cfg = core::default_approx_config(params.n, params.t);
  }
  bfv::Evaluator ev(ctx, backend, cfg);

  std::mt19937_64 rng(6);
  std::vector<hemath::i64> va(params.n);
  for (auto& v : va) v = static_cast<hemath::i64>(rng() % 16);
  std::vector<hemath::i64> vw(params.n, 0);
  for (int i = 0; i < 72; ++i) vw[rng() % params.n] = static_cast<hemath::i64>(rng() % 15) - 7;

  const bfv::Ciphertext ct = enc.encrypt(ctx.encode_signed(va), pk);
  const bfv::PlainSpectrum spec = ev.transform_plain(ctx.encode_signed(vw));
  for (auto _ : state) {
    bfv::Ciphertext out = ev.multiply_plain(ct, spec);
    benchmark::DoNotOptimize(out.c0.coeffs().data());
  }
}
BENCHMARK(BM_MultiplyPlain)
    ->Arg(static_cast<int>(bfv::PolyMulBackend::kNtt))
    ->Arg(static_cast<int>(bfv::PolyMulBackend::kFft))
    ->Arg(static_cast<int>(bfv::PolyMulBackend::kApproxFft));

/// The served block MAC (HConvProtocol::run_round) at N = 4096 on kFft:
/// eight outputs over 64 ciphertext pairs, in blocks of state.range(1)
/// outputs, with sums from the scratch arena. Each iteration takes the next
/// 512 weight spectra of a 32 MB working set (four times this VM's 2 MB L2
/// per core), so the weights stream as they do on the served path; the
/// ciphertext spectra (4 MB) are shared by every block, as served.
void BM_SpectralMacBlock(benchmark::State& state) {
  constexpr std::size_t kPairs = 64, kOutputs = 8, kSets = 2;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t block = static_cast<std::size_t>(state.range(1));
  const bfv::BfvParams params = bfv::BfvParams::create(n, 20, 49);
  const bfv::BfvContext ctx(params);
  const bfv::Evaluator ev(ctx, bfv::PolyMulBackend::kFft);
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> big(-0x1p55, 0x1p55), small(-0x1p10, 0x1p10);
  std::vector<bfv::Evaluator::CiphertextSpectrum> cts(kPairs);
  for (auto& ct : cts) {
    for (bfv::CipherSpectrum* c : {&ct.c0, &ct.c1}) {
      c->backend = bfv::PolyMulBackend::kFft;
      c->fft.resize(n / 2);
      for (auto& v : c->fft) v = {big(rng), big(rng)};
    }
  }
  // w[set][output][pair], sets cycled across iterations.
  std::vector<bfv::PlainSpectrum> w(kSets * kOutputs * kPairs);
  for (auto& spec : w) {
    spec.backend = bfv::PolyMulBackend::kFft;
    spec.fft.resize(n / 2);
    for (auto& v : spec.fft) v = {small(rng), small(rng)};
  }
  std::vector<const bfv::PlainSpectrum*> ws(block);
  std::size_t set = 0;
  for (auto _ : state) {
    for (std::size_t first = 0; first < kOutputs; first += block) {
      core::ScratchFrame frame(core::thread_scratch());
      const bfv::SpectralSums sums = ev.engine().zeroed_sums(2 * block, frame);
      for (std::size_t i = 0; i < kPairs; ++i) {
        for (std::size_t b = 0; b < block; ++b) {
          ws[b] = &w[(set * kOutputs + first + b) * kPairs + i];
        }
        ev.multiply_accumulate(cts[i], ws, sums);
      }
      benchmark::DoNotOptimize(sums.fft[0]);
      benchmark::ClobberMemory();
    }
    set = (set + 1) % kSets;
  }
}
BENCHMARK(BM_SpectralMacBlock)->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})->Args({4096, 8});

/// One served finalize at N = 4096 on kFft: the inverse FFT of a sum plus
/// the exact rounding back to Z_q (fft::round_to_zq, vectorized at AVX-512).
void BM_Finalize(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bfv::BfvParams params = bfv::BfvParams::create(n, 20, 49);
  const bfv::BfvContext ctx(params);
  const bfv::PolyMulEngine engine(ctx, bfv::PolyMulBackend::kFft);
  std::mt19937_64 rng(9);
  hemath::Poly ct(params.q, n);
  for (std::size_t i = 0; i < n; ++i) ct[i] = rng() % params.q;
  std::vector<hemath::i64> wv(n, 0);
  for (int i = 0; i < 72; ++i) wv[rng() % n] = static_cast<hemath::i64>(rng() % 15) - 7;
  bfv::SpectralAccumulator acc;
  engine.multiply_accumulate(engine.transform_cipher_spectrum(ct),
                             engine.transform_plain(ctx.encode_signed(wv)), acc);
  for (auto _ : state) {
    hemath::Poly out = engine.finalize(acc);
    benchmark::DoNotOptimize(out.coeffs().data());
  }
}
BENCHMARK(BM_Finalize)->Arg(4096);

/// One error polynomial: n draws from a Sampler stream mapped through the
/// context's CDT sampler (CdtGaussianSampler::sample_into) at the active
/// SIMD level — what encryption spends twice per ciphertext.
void BM_ErrorPoly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bfv::BfvContext ctx(bfv::BfvParams::create(n, 20, 49));
  hemath::Sampler sampler(11);
  std::vector<hemath::u64> e(n);
  for (auto _ : state) {
    ctx.error_sampler().sample_into(ctx.params().q, e, sampler.rng());
    benchmark::DoNotOptimize(e.data());
  }
}
BENCHMARK(BM_ErrorPoly)->Arg(4096);

/// One mask draw: a Sampler seeded from a fresh derived stream, then
/// uniform_into at t = 2^20 over n coefficients — what the served round
/// spends per output before it subtracts the mask.
void BM_UniformPoly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<hemath::u64> mask(n);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    hemath::Sampler sampler(hemath::derive_stream_seed(11, stream++));
    sampler.uniform_into(hemath::u64{1} << 20, mask);
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_UniformPoly)->Arg(4096);

/// The client's encryption at N = 4096, 49-bit q: one lane group of
/// state.range(1) ciphertexts through bfv::encrypt_batch (1 is
/// Encryptor::encrypt's batch of one, 8 the AVX-512 group the served round
/// runs), into outputs that already hold their ring elements. The time is
/// per group.
void BM_EncryptBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const bfv::BfvContext ctx(bfv::BfvParams::create(n, 20, 49));
  hemath::Sampler key_sampler(12);
  bfv::KeyGenerator keygen(ctx, key_sampler);
  const bfv::PreparedPublicKey pk =
      bfv::prepare_public_key(ctx, keygen.public_key(keygen.secret_key()));
  std::mt19937_64 rng(13);
  std::vector<hemath::u64> rows(k * n);
  for (auto& v : rows) v = rng() % ctx.params().t;
  std::vector<const hemath::u64*> messages(k);
  for (std::size_t j = 0; j < k; ++j) messages[j] = rows.data() + j * n;
  std::vector<hemath::Sampler> samplers;
  for (std::size_t j = 0; j < k; ++j) samplers.emplace_back(100 + j);
  std::vector<bfv::Ciphertext> out(k);
  for (auto _ : state) {
    bfv::encrypt_batch(ctx, pk, messages, samplers, out);
    benchmark::DoNotOptimize(out[0].c0.coeffs().data());
  }
}
BENCHMARK(BM_EncryptBatch)->Args({4096, 1})->Args({4096, 8});

// Self-gate for --backend pow2: at equal 49-bit width, the mask-reduce
// pointwise mulmod must beat the Barrett chain (one u64 mul + AND vs the
// multiply-high reduction). Exits non-zero on violation so the CI perf job
// fails even when the benchdiff ratios would tolerate the drift. Best-of-N
// wall-clock on the dispatched kernels; generous reps drown scheduler noise.
bool pow2_beats_barrett_at_equal_width() {
  using clock = std::chrono::steady_clock;
  const std::size_t n = 4096;
  const hemath::u64 q = hemath::find_ntt_prime(49, n);
  const hemath::Pow2Ring ring(49);
  hemath::Sampler sampler(7);
  std::vector<hemath::u64> a = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> b = sampler.uniform_poly(q, n).coeffs();
  std::vector<hemath::u64> c(n);
  const int reps = 2000;
  auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int trial = 0; trial < 5; ++trial) {
      const auto t0 = clock::now();
      for (int r = 0; r < reps; ++r) body();
      const auto t1 = clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  const double barrett = best_of([&] {
    hemath::pointwise_mulmod(a.data(), b.data(), c.data(), n, q);
    benchmark::DoNotOptimize(c.data());
  });
  const double pow2 = best_of([&] {
    hemath::pointwise_mulmod_pow2(a.data(), b.data(), c.data(), n, ring);
    benchmark::DoNotOptimize(c.data());
  });
  std::fprintf(stderr, "pow2-vs-barrett self-gate (n=%zu, 49-bit): barrett %.3f ms, pow2 %.3f ms\n",
               n, barrett * 1e3, pow2 * 1e3);
  return pow2 < barrett;
}

}  // namespace

// --batch restricts the run to the batched-transform benchmarks, the served
// block MAC and finalize, the error sampler, the mask draw and batched
// encryption — the record set the committed BENCH_batch_pr7.json,
// BENCH_live_pr21.json, BENCH_mac_pr23.json, BENCH_encrypt_pr24.json and
// BENCH_rng_pr25.json baselines gate in CI. Sugar for
// --benchmark_filter=Batch|SpectralMacBlock|Finalize|ErrorPoly|UniformPoly
// that survives baseline re-records verbatim.
// --backend pow2 likewise restricts to the Z_{2^k} benchmarks (the
// BENCH_pow2_pr10.json record set) and additionally runs the
// pow2-beats-Barrett self-gate before the measured run.
int main(int argc, char** argv) {
  static char filter_arg[] =
      "--benchmark_filter=Batch|SpectralMacBlock|Finalize|ErrorPoly|UniformPoly";
  static char pow2_filter_arg[] = "--benchmark_filter=Pow2";
  std::vector<char*> args;
  bool batch_only = false;
  bool pow2_only = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--batch") {
      batch_only = true;
    } else if (std::string(argv[i]) == "--backend" && i + 1 < argc &&
               std::string(argv[i + 1]) == "pow2") {
      pow2_only = true;
      ++i;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (batch_only) args.push_back(filter_arg);
  if (pow2_only) {
    args.push_back(pow2_filter_arg);
    if (!pow2_beats_barrett_at_equal_width()) {
      std::fprintf(stderr, "FAIL: pow2 pointwise mulmod did not beat Barrett at equal width\n");
      return 1;
    }
  }
  args.push_back(nullptr);
  int new_argc = static_cast<int>(args.size()) - 1;
  return flash::benchjson::run_benchmarks(new_argc, args.data());
}
