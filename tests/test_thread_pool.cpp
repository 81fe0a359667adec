// core::ThreadPool semantics, the shared transform caches, and the
// thread-safety of PolyMulEngine's counters — the regression tests for the
// races the parallel HConv pipeline is built on. All of these run under the
// ThreadSanitizer preset (-DFLASH_SANITIZE=thread, ctest -L mt).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bfv/evaluator.hpp"
#include "core/thread_pool.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/sampler.hpp"

namespace flash {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  core::ThreadPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8u);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, RespectsRangeBounds) {
  core::ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
  // Empty and single-index ranges.
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  core::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(0, 16, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPool, PropagatesFirstException) {
  core::ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::size_t i) {
                                   ++executed;
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must have drained the job (no worker left inside it).
  EXPECT_LE(executed.load(), 64);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  core::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, ForRangeNullPoolRunsInline) {
  std::vector<int> hits(32, 0);
  core::for_range(nullptr, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 32);
}

// The satellite regression: one shared PolyMulEngine hammered from 8
// threads must tally exactly — the seed code's plain mutable counters lost
// updates (a data race TSan flags).
TEST(ThreadPool, SharedEngineCountersAreExactUnderContention) {
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  bfv::Evaluator ev(ctx, bfv::PolyMulBackend::kFft);
  ev.engine().reset_counters();

  bfv::Plaintext pt = ctx.make_plaintext();
  std::mt19937_64 rng(5);
  for (std::size_t i = 0; i < params.n; ++i) pt.poly[i] = rng() % params.t;
  bfv::Poly ct_poly(params.q, params.n);
  for (std::size_t i = 0; i < params.n; ++i) ct_poly[i] = rng() % params.q;

  const std::size_t kTasks = 64;
  core::ThreadPool pool(8);
  pool.parallel_for(0, kTasks, [&](std::size_t) {
    const bfv::PlainSpectrum w = ev.engine().transform_plain(pt);
    bfv::SpectralAccumulator acc;
    ev.engine().multiply_accumulate(ev.engine().transform_cipher_spectrum(ct_poly), w, acc);
    (void)ev.engine().finalize(acc);
  });

  const bfv::PolyMulCounters c = ev.engine().counters();
  EXPECT_EQ(c.plain_transforms, kTasks);
  EXPECT_EQ(c.cipher_transforms, kTasks);
  EXPECT_EQ(c.inverse_transforms, kTasks);
  EXPECT_EQ(c.pointwise_products, kTasks * params.n / 2);
}

TEST(TransformCache, ContextsShareTables) {
  fft::clear_transform_caches();
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext a(params);
  const auto after_first = fft::transform_cache_stats();
  bfv::BfvContext b(params);
  bfv::BfvContext c(params);
  const auto after_three = fft::transform_cache_stats();
  // One NTT table + one FFT plan built total; the later contexts hit.
  EXPECT_EQ(after_first.misses, 2u);
  EXPECT_EQ(after_three.misses, 2u);
  EXPECT_EQ(after_three.hits, after_first.hits + 4u);
  EXPECT_EQ(&a.ntt(), &b.ntt());
  EXPECT_EQ(&a.fft(), &c.fft());
}

TEST(TransformCache, ApproxEnginesShareByConfig) {
  fft::clear_transform_caches();
  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  bfv::BfvContext ctx(params);
  const fft::FxpFftConfig cfg = fft::FxpFftConfig::uniform(params.n / 2, 24, 39, 5);
  bfv::Evaluator e1(ctx, bfv::PolyMulBackend::kApproxFft, cfg);
  const auto before = fft::transform_cache_stats();
  bfv::Evaluator e2(ctx, bfv::PolyMulBackend::kApproxFft, cfg);
  const auto after_same = fft::transform_cache_stats();
  EXPECT_EQ(after_same.fxp_entries, before.fxp_entries);  // same config: cache hit
  fft::FxpFftConfig other = cfg;
  other.twiddle_k = 3;  // different design point must not share tables
  bfv::Evaluator e3(ctx, bfv::PolyMulBackend::kApproxFft, other);
  const auto after_other = fft::transform_cache_stats();
  EXPECT_EQ(after_other.fxp_entries, before.fxp_entries + 1);
}

TEST(TransformCache, ConcurrentLookupBuildsOnce) {
  fft::clear_transform_caches();
  core::ThreadPool pool(8);
  std::vector<std::shared_ptr<const hemath::NttTables>> got(32);
  pool.parallel_for(0, got.size(), [&](std::size_t i) {
    got[i] = fft::shared_ntt_tables(12289, 1024);
  });
  for (const auto& t : got) EXPECT_EQ(t.get(), got[0].get());
  EXPECT_EQ(fft::transform_cache_stats().ntt_entries, 1u);
}

TEST(Sampler, DerivedStreamsAreDeterministicAndDistinct) {
  const std::uint64_t a0 = hemath::derive_stream_seed(42, 0);
  EXPECT_EQ(a0, hemath::derive_stream_seed(42, 0));
  EXPECT_NE(a0, hemath::derive_stream_seed(42, 1));
  EXPECT_NE(a0, hemath::derive_stream_seed(43, 0));

  hemath::Sampler base(42);
  // fork() depends only on (construction seed, stream), not on draws made.
  hemath::Sampler f1 = base.fork(7);
  (void)base.uniform_mod(1000);
  hemath::Sampler f2 = base.fork(7);
  EXPECT_EQ(f1.uniform_poly(97, 64).coeffs(), f2.uniform_poly(97, 64).coeffs());
}

TEST(Sampler, CdtIsSafeToShareAcrossPerTaskStreams) {
  // The CDT table is immutable; per-task rngs seeded by stream id make the
  // draws reproducible regardless of scheduling.
  hemath::CdtGaussianSampler cdt(3.2);
  core::ThreadPool pool(8);
  std::vector<hemath::i64> first(64), second(64);
  for (auto* out : {&first, &second}) {
    auto& v = *out;
    pool.parallel_for(0, v.size(), [&](std::size_t i) {
      std::mt19937_64 rng(hemath::derive_stream_seed(99, i));
      v[i] = cdt.sample(rng);
    });
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace flash
