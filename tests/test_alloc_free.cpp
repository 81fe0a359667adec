// Steady-state allocation tests: after warmup, the _into transform APIs must
// perform ZERO heap allocations (the scratch arena absorbs all working
// storage). Global operator new/delete are replaced with counting versions;
// each test runs one warmup call, snapshots the counter, runs the hot call
// again, and asserts the delta is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "core/flash_accelerator.hpp"
#include "core/scratch.hpp"
#include "fft/complex_fft.hpp"
#include "fft/fxp_fft.hpp"
#include "fft/negacyclic.hpp"
#include "hemath/ntt.hpp"
#include "hemath/pointwise.hpp"
#include "hemath/pow2.hpp"
#include "hemath/primes.hpp"
#include "hemath/sampler.hpp"
#include "sparsefft/executor.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Counting global allocator. Deletes are intentionally not counted: freeing
// is allowed in steady state only if nothing was allocated, and the assert
// is on the allocation count alone.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace flash {
namespace {

using fft::cplx;
using hemath::u64;

std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

TEST(AllocFree, FxpNegacyclicForwardAndInverseInto) {
  const std::size_t n = 1024;
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  std::vector<double> a(n, 0.0);
  for (std::size_t i = 0; i < n; i += 5) a[i] = static_cast<double>(i % 11) - 5.0;
  std::vector<cplx> spec(n / 2);
  std::vector<double> back(n);
  core::ScratchArena& arena = core::thread_scratch();
  fft::FxpFftStats stats;
  fxp.forward_into(a, spec, &stats, &arena);  // warmup: arena grows, stats vector sizes
  fxp.inverse_into(spec, back, &stats, &arena);

  const std::uint64_t before = allocs();
  fxp.forward_into(a, spec, &stats, &arena);
  fxp.inverse_into(spec, back, &stats, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, NegacyclicFftForwardAndInverseInto) {
  const std::size_t n = 2048;
  fft::NegacyclicFft nfft(n);
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>((i * 7) % 255) - 127.0;
  std::vector<cplx> spec(n / 2);
  std::vector<double> back(n);
  core::ScratchArena& arena = core::thread_scratch();
  nfft.forward_into(a, spec);
  nfft.inverse_into(spec, back, &arena);

  const std::uint64_t before = allocs();
  nfft.forward_into(a, spec);
  nfft.inverse_into(spec, back, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, FftPlanSpanForwardInverse) {
  const std::size_t m = 1024;
  fft::FftPlan plan(m, +1);
  std::vector<cplx> a(m, cplx{1.0, -1.0});
  const std::uint64_t before = allocs();
  plan.forward(std::span<cplx>(a));
  plan.inverse(std::span<cplx>(a));
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, NttSpanForwardInversePointwise) {
  const std::size_t n = 2048;
  const u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(9);
  std::vector<u64> a = sampler.uniform_poly(q, n).coeffs();
  std::vector<u64> b = sampler.uniform_poly(q, n).coeffs();
  std::vector<u64> c(n);
  const std::uint64_t before = allocs();
  tables.forward(std::span<u64>(a));
  tables.forward(std::span<u64>(b));
  tables.pointwise(std::span<const u64>(a), std::span<const u64>(b), std::span<u64>(c));
  tables.inverse(std::span<u64>(c));
  EXPECT_EQ(allocs() - before, 0u);
}

// The single-polynomial transforms run the in-place g = 1 Shoup kernel: no
// scratch, no allocation, from the first call on.
TEST(AllocFree, ShoupNttSpanForwardInverse) {
  const std::size_t n = 2048;
  const u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(10);
  std::vector<u64> a = sampler.uniform_poly(q, n).coeffs();
  const std::uint64_t before = allocs();
  tables.forward(std::span<u64>(a));
  tables.inverse(std::span<u64>(a));
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, NttBatchIntoAfterWarmup) {
  const std::size_t n = 2048, batch = 6;
  const u64 q = hemath::find_ntt_prime(49, n);
  hemath::NttTables tables(q, n);
  hemath::Sampler sampler(11);
  std::vector<std::vector<u64>> polys(batch);
  for (auto& p : polys) p = sampler.uniform_poly(q, n).coeffs();
  std::vector<u64*> ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) ptrs[b] = polys[b].data();
  core::ScratchArena& arena = core::thread_scratch();
  // Warmup sizes the arena for the SoA lane buffers.
  tables.forward_batch_into(ptrs, &arena);
  tables.inverse_batch_into(ptrs, &arena);

  const std::uint64_t before = allocs();
  tables.forward_batch_into(ptrs, &arena);
  tables.inverse_batch_into(ptrs, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, FxpFftBatchIntoAfterWarmup) {
  const std::size_t m = 1024, batch = 5;
  fft::FxpFft fxp(m, core::default_approx_config(m * 2, 1u << 10));
  std::vector<std::vector<cplx>> in(batch, std::vector<cplx>(m));
  std::vector<std::vector<cplx>> out(batch, std::vector<cplx>(m));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < m; i += 3) in[b][i] = {static_cast<double>(b + 1), -2.0};
  }
  std::vector<const cplx*> in_ptrs(batch);
  std::vector<cplx*> out_ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    in_ptrs[b] = in[b].data();
    out_ptrs[b] = out[b].data();
  }
  core::ScratchArena& arena = core::thread_scratch();
  fft::FxpFftStats stats;
  fxp.forward_batch_into(std::span<const cplx* const>(in_ptrs), std::span<cplx* const>(out_ptrs),
                         &stats, &arena);
  fxp.inverse_batch_into(std::span<const cplx* const>(in_ptrs), std::span<cplx* const>(out_ptrs),
                         &stats, &arena);

  const std::uint64_t before = allocs();
  fxp.forward_batch_into(std::span<const cplx* const>(in_ptrs), std::span<cplx* const>(out_ptrs),
                         &stats, &arena);
  fxp.inverse_batch_into(std::span<const cplx* const>(in_ptrs), std::span<cplx* const>(out_ptrs),
                         &stats, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, FxpNegacyclicBatchIntoAfterWarmup) {
  const std::size_t n = 1024, batch = 4;
  fft::FxpNegacyclicTransform fxp(n, core::default_approx_config(n, 1u << 10));
  std::vector<std::vector<double>> a(batch, std::vector<double>(n, 0.0));
  std::vector<std::vector<cplx>> spec(batch, std::vector<cplx>(n / 2));
  std::vector<std::vector<double>> back(batch, std::vector<double>(n));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = b; i < n; i += 7) a[b][i] = static_cast<double>(i % 9) - 4.0;
  }
  std::vector<const double*> a_ptrs(batch);
  std::vector<cplx*> spec_ptrs(batch);
  std::vector<const cplx*> cspec_ptrs(batch);
  std::vector<double*> back_ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    a_ptrs[b] = a[b].data();
    spec_ptrs[b] = spec[b].data();
    cspec_ptrs[b] = spec[b].data();
    back_ptrs[b] = back[b].data();
  }
  core::ScratchArena& arena = core::thread_scratch();
  fft::FxpFftStats stats;
  fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                         std::span<cplx* const>(spec_ptrs), &stats, &arena);
  fxp.inverse_batch_into(std::span<const cplx* const>(cspec_ptrs),
                         std::span<double* const>(back_ptrs), &stats, &arena);

  const std::uint64_t before = allocs();
  fxp.forward_batch_into(std::span<const double* const>(a_ptrs),
                         std::span<cplx* const>(spec_ptrs), &stats, &arena);
  fxp.inverse_batch_into(std::span<const cplx* const>(cspec_ptrs),
                         std::span<double* const>(back_ptrs), &stats, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, PointwiseMulmodRaw) {
  const std::size_t n = 4096;
  const u64 q = hemath::find_ntt_prime(49, n);
  std::vector<u64> a(n, q - 1), b(n, q - 2), c(n);
  const std::uint64_t before = allocs();
  hemath::pointwise_mulmod(a.data(), b.data(), c.data(), n, q);
  hemath::pointwise_mulmod_accumulate(c.data(), a.data(), b.data(), n, q);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, Pow2NegacyclicIntoAndBatchIntoAfterWarmup) {
  const std::size_t n = 1024, batch = 5;
  const hemath::Pow2Ring ring(49);
  hemath::Sampler sampler(12);
  std::vector<u64> w = sampler.uniform_poly(u64{1} << 49, n).coeffs();
  std::vector<std::vector<u64>> cts(batch);
  std::vector<std::vector<u64>> outs(batch, std::vector<u64>(n));
  for (std::size_t b = 0; b < batch; ++b) {
    cts[b] = sampler.uniform_poly(u64{1} << 49, n).coeffs();
  }
  std::vector<const u64*> ct_ptrs(batch);
  std::vector<u64*> out_ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    ct_ptrs[b] = cts[b].data();
    out_ptrs[b] = outs[b].data();
  }
  core::ScratchArena& arena = core::thread_scratch();
  // Warmup: the Karatsuba recursion and the batch SoA sweep size the arena.
  hemath::negacyclic_mul_pow2_into(cts[0].data(), w.data(), outs[0].data(), n, ring, &arena);
  hemath::negacyclic_mul_pow2_batch_into(std::span<const u64* const>(ct_ptrs), w.data(),
                                         std::span<u64* const>(out_ptrs), n, ring, &arena);

  const std::uint64_t before = allocs();
  hemath::negacyclic_mul_pow2_into(cts[0].data(), w.data(), outs[0].data(), n, ring, &arena);
  hemath::negacyclic_mul_pow2_batch_into(std::span<const u64* const>(ct_ptrs), w.data(),
                                         std::span<u64* const>(out_ptrs), n, ring, &arena);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocFree, BlockMacAndFinalizeAllocateOnlyTheOutputPolys) {
  // The served round's block: sums from the scratch arena, one block MAC
  // per ciphertext, finalize in place. After a warm-up block, the only heap
  // allocations are the output ciphertexts' two Polys each.
  const auto params = bfv::BfvParams::create(1024, 16, 40);
  const bfv::BfvContext ctx(params);
  hemath::Sampler sampler(2303);
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::PreparedPublicKey pk =
      bfv::prepare_public_key(ctx, keygen.public_key(keygen.secret_key()));
  bfv::Encryptor enc(ctx, sampler);
  std::vector<hemath::i64> x(params.n, 3), wv(params.n, 0);
  constexpr std::size_t kOutputs = 4, kPolys = 3;
  for (const bfv::PolyMulBackend backend : {bfv::PolyMulBackend::kFft, bfv::PolyMulBackend::kNtt}) {
    const bfv::Evaluator ev(ctx, backend);
    std::vector<bfv::Evaluator::CiphertextSpectrum> cts;
    for (std::size_t i = 0; i < kPolys; ++i) {
      cts.push_back(ev.transform_ciphertext(enc.encrypt(ctx.encode_signed(x), pk)));
    }
    std::vector<bfv::PlainSpectrum> w;
    for (std::size_t b = 0; b < kOutputs; ++b) {
      wv[b * 7] = static_cast<hemath::i64>(b) + 1;
      w.push_back(ev.transform_plain(ctx.encode_signed(wv)));
    }
    std::vector<bfv::Ciphertext> out(kOutputs);
    const auto run_block = [&] {
      core::ScratchFrame frame(core::thread_scratch());
      const bfv::SpectralSums sums = ev.engine().zeroed_sums(2 * kOutputs, frame);
      std::span<const bfv::PlainSpectrum*> ws = frame.alloc<const bfv::PlainSpectrum*>(kOutputs);
      for (std::size_t b = 0; b < kOutputs; ++b) ws[b] = &w[b];
      for (const auto& ct : cts) ev.multiply_accumulate(ct, ws, sums);
      for (std::size_t b = 0; b < kOutputs; ++b) out[b] = ev.finalize(sums, b);
    };
    run_block();  // warm-up sizes the arena
    const std::uint64_t before = allocs();
    run_block();
    EXPECT_EQ(allocs() - before, 2 * kOutputs);
  }
}

TEST(AllocFree, EncryptBatchAllocatesOnlyTheOutputPolys) {
  // A lane group's u's, errors, transform scratch and product pointers come
  // from the scratch arena: after a warm-up group, encrypting into fresh
  // ciphertexts allocates their c0 and c1 and nothing else, and encrypting
  // into ciphertexts that already hold ring elements allocates nothing.
  const auto params = bfv::BfvParams::create(1024, 16, 40);
  const bfv::BfvContext ctx(params);
  hemath::Sampler sampler(2401);
  bfv::KeyGenerator keygen(ctx, sampler);
  const bfv::PreparedPublicKey pk =
      bfv::prepare_public_key(ctx, keygen.public_key(keygen.secret_key()));
  constexpr std::size_t kGroup = 8;
  std::vector<u64> rows(kGroup * params.n, 5);
  std::vector<const u64*> messages(kGroup);
  for (std::size_t j = 0; j < kGroup; ++j) messages[j] = rows.data() + j * params.n;
  std::vector<hemath::Sampler> samplers(kGroup, hemath::Sampler(24));
  std::vector<bfv::Ciphertext> out(kGroup);
  bfv::encrypt_batch(ctx, pk, messages, samplers, out);  // warm-up sizes the arena
  std::vector<bfv::Ciphertext> fresh(kGroup);
  const std::uint64_t before = allocs();
  bfv::encrypt_batch(ctx, pk, messages, samplers, fresh);
  EXPECT_EQ(allocs() - before, 2 * kGroup);
  const std::uint64_t reused = allocs();
  bfv::encrypt_batch(ctx, pk, messages, samplers, out);
  EXPECT_EQ(allocs() - reused, 0u);
}

TEST(AllocFree, SparseExecuteInto) {
  const std::size_t m = 1024;
  std::vector<std::size_t> pos;
  for (std::size_t i = 0; i < 72; ++i) pos.push_back((i * 37) % m);
  sparsefft::SparsityPattern pattern(m, std::move(pos));
  sparsefft::SparseFftPlan plan(m, pattern);
  std::vector<cplx> input(m, cplx{0.0, 0.0});
  for (std::size_t p : pattern.nonzeros()) input[p] = {2.0, 0.0};
  std::vector<cplx> out(m);
  const std::uint64_t before = allocs();
  sparsefft::execute_into(plan, input, out);
  EXPECT_EQ(allocs() - before, 0u);
}

}  // namespace
}  // namespace flash
