// Deterministic-scheduler tier for the ConvServer (ARCHITECTURE.md §9).
//
// Everything here runs with dispatchers = 0 (manual dispatch on the test
// thread — every interleaving is chosen by the test, not the OS scheduler)
// except the two tests whose *subject* is a cross-thread race: cancellation
// racing a batch pickup and drain() racing an inflight batch. Those pin the
// interleaving with the serve batch hook instead of sleeps, so they are
// race-deterministic too — the "mt" label puts them under TSan.
//
// The multi-threaded stress companion is tests/test_serve_stress.cpp
// (ctest -L soak).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "bfv/context.hpp"
#include "serve/conv_server.hpp"
#include "tensor/conv.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"

namespace flash::serve {
namespace {

using namespace std::chrono_literals;

/// Two small, distinct layers (different seeds => different weights, keys
/// and mask streams) sharing one parameter set / context.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : layer_a_(flash::testing::make_conv_case(
            {.seed = 0xa11ce, .c = 1, .m = 1, .h = 4, .w = 4, .k = 2, .stride = 1, .pad = 0})),
        layer_b_(flash::testing::make_conv_case(
            {.seed = 0xb0b, .c = 1, .m = 2, .h = 4, .w = 4, .k = 2, .stride = 1, .pad = 0})),
        ctx_a_(layer_a_.params),
        ctx_b_(layer_b_.params) {}

  PlanSpec spec_for(const flash::testing::ConvCase& layer, const bfv::BfvContext& ctx) const {
    PlanSpec s;
    s.ctx = &ctx;
    s.backend = bfv::PolyMulBackend::kNtt;
    s.protocol_seed = layer.spec.seed;
    s.weights = layer.weights;
    s.stride = layer.spec.stride;
    s.pad = static_cast<std::size_t>(layer.spec.pad);
    s.in_h = layer.spec.h;
    s.in_w = layer.spec.w;
    return s;
  }
  PlanSpec spec_a() const { return spec_for(layer_a_, ctx_a_); }
  PlanSpec spec_b() const { return spec_for(layer_b_, ctx_b_); }

  flash::testing::ConvCase layer_a_;
  flash::testing::ConvCase layer_b_;
  bfv::BfvContext ctx_a_;
  bfv::BfvContext ctx_b_;
};

TEST_F(ServeTest, PlanRegistrationDedupsByContent) {
  ConvServer server({.dispatchers = 0});
  const PlanId a1 = server.register_plan(spec_a());
  const PlanId a2 = server.register_plan(spec_a());
  const PlanId b = server.register_plan(spec_b());
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);

  // Same layer, different protocol seed => different masks => distinct plan.
  PlanSpec reseeded = spec_a();
  reseeded.protocol_seed ^= 1;
  EXPECT_NE(server.register_plan(reseeded), a1);
}

TEST_F(ServeTest, RegistrationRecordsPrepareAndCertifyOncePerPlan) {
  const auto json_count = [](const ConvServer& server, const char* histogram) {
    return json_number_at(server.metrics_json(), std::string("\"") + histogram + "\"", "count");
  };
  {
    ConvServer server({.dispatchers = 0, .certify = CertifyPolicy::kWarn});
    server.register_plan(spec_a());
    EXPECT_EQ(server.metrics().register_prepare.count(), 1u);
    EXPECT_EQ(server.metrics().register_certify.count(), 1u);
    EXPECT_EQ(json_count(server, "register_prepare"), 1.0);
    EXPECT_EQ(json_count(server, "register_certify"), 1.0);
    // A deduplicated re-registration prepares and certifies nothing.
    server.register_plan(spec_a());
    EXPECT_EQ(json_count(server, "register_prepare"), 1.0);
    EXPECT_EQ(json_count(server, "register_certify"), 1.0);
  }
  {
    ConvServer server({.dispatchers = 0, .certify = CertifyPolicy::kOff});
    server.register_plan(spec_a());
    EXPECT_EQ(json_count(server, "register_prepare"), 1.0);
    EXPECT_EQ(json_count(server, "register_certify"), 0.0);
  }
}

TEST_F(ServeTest, ServedResultMatchesSerialRunnerAndCleartext) {
  ConvServer server({.dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());
  ConvFuture fut = server.submit(plan, layer_a_.x, {.stream = 7});
  EXPECT_EQ(fut.state(), RequestState::kQueued);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_FALSE(server.dispatch_once());
  ASSERT_EQ(fut.state(), RequestState::kDone);

  // Bit-identical to a bare runner with the same seed and stream base.
  protocol::HConvProtocol proto(ctx_a_, bfv::PolyMulBackend::kNtt, std::nullopt,
                                layer_a_.spec.seed);
  protocol::ConvRunner runner(proto);
  const protocol::ConvRunnerResult serial =
      runner.run(layer_a_.x, layer_a_.weights, 1, 0, std::uint64_t{7} << 32);
  EXPECT_EQ(fut.result().client_share.data(), serial.client_share.data());
  EXPECT_EQ(fut.result().server_share.data(), serial.server_share.data());

  const tensor::Tensor3 expect = tensor::conv2d(layer_a_.x, layer_a_.weights, {1, 0});
  EXPECT_EQ(fut.result().reconstruct(layer_a_.params.t).data(), expect.data());
}

TEST_F(ServeTest, DispatchGroupsQueueByPlan) {
  ConvServer server({.max_batch = 8, .dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  const PlanId b = server.register_plan(spec_b());

  // Interleaved submission: A B A B A. FIFO picks A first and takes every
  // queued A with it; the next dispatch drains the Bs.
  std::vector<ConvFuture> futures;
  for (std::size_t i = 0; i < 5; ++i) {
    const bool is_a = i % 2 == 0;
    futures.push_back(server.submit(is_a ? a : b, is_a ? layer_a_.x : layer_b_.x));
  }
  EXPECT_EQ(server.metrics().queue_depth.value(), 5);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(server.metrics().completed.value(), 3u);  // the three As
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(server.metrics().completed.value(), 5u);
  EXPECT_FALSE(server.dispatch_once());

  const auto stats = server.metrics().plan_batches();
  ASSERT_TRUE(stats.count(a));
  ASSERT_TRUE(stats.count(b));
  EXPECT_EQ(stats.at(a).max_batch, 3u);
  EXPECT_EQ(stats.at(b).max_batch, 2u);
  EXPECT_EQ(server.metrics().batches_dispatched.value(), 2u);
  for (auto& fut : futures) EXPECT_EQ(fut.state(), RequestState::kDone);
}

TEST_F(ServeTest, MaxBatchBoundsOneDispatch) {
  ConvServer server({.max_batch = 2, .dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  for (int i = 0; i < 5; ++i) server.submit(a, layer_a_.x);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(server.metrics().completed.value(), 2u);
  server.drain();
  EXPECT_EQ(server.metrics().completed.value(), 5u);
  EXPECT_EQ(server.metrics().plan_batches().at(a).max_batch, 2u);
}

// --- Edge cases named in the issue ---

TEST_F(ServeTest, ZeroLengthQueueRejectsEverySubmitWithRetryAfter) {
  ConvServer server({.max_queue = 0, .dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture fut = server.submit(a, layer_a_.x);
  EXPECT_EQ(fut.state(), RequestState::kRejected);
  EXPECT_TRUE(fut.done());
  EXPECT_GT(fut.retry_after_s(), 0.0);
  EXPECT_THROW(fut.result(), std::logic_error);
  EXPECT_EQ(server.metrics().rejected_queue_full.value(), 1u);
  EXPECT_EQ(server.metrics().admitted.value(), 0u);
  EXPECT_FALSE(server.dispatch_once());
}

TEST_F(ServeTest, BackpressureKicksInAtQueueBound) {
  ConvServer server({.max_queue = 2, .dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture ok1 = server.submit(a, layer_a_.x);
  ConvFuture ok2 = server.submit(a, layer_a_.x);
  ConvFuture shed = server.submit(a, layer_a_.x);
  EXPECT_EQ(ok1.state(), RequestState::kQueued);
  EXPECT_EQ(ok2.state(), RequestState::kQueued);
  EXPECT_EQ(shed.state(), RequestState::kRejected);
  EXPECT_EQ(server.metrics().rejected_queue_full.value(), 1u);

  // The shed slot frees up after a dispatch.
  EXPECT_TRUE(server.dispatch_once());
  ConvFuture retry = server.submit(a, layer_a_.x);
  EXPECT_EQ(retry.state(), RequestState::kQueued);
  server.drain();
  EXPECT_EQ(server.metrics().completed.value(), 3u);
}

TEST_F(ServeTest, DeadlineExpiredAtAdmissionNeverCostsQueueSpace) {
  ConvServer server({.dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture fut = server.submit(a, layer_a_.x, {.timeout = 0ns});
  EXPECT_EQ(fut.state(), RequestState::kDeadlineExceeded);
  EXPECT_EQ(server.metrics().deadline_expired_at_admission.value(), 1u);
  EXPECT_EQ(server.metrics().admitted.value(), 0u);
  EXPECT_EQ(server.metrics().queue_depth.value(), 0);
  EXPECT_FALSE(server.dispatch_once());
}

TEST_F(ServeTest, DeadlineExpiredInQueueIsShedAtPickup) {
  ConvServer server({.dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture doomed = server.submit(a, layer_a_.x, {.timeout = 1ms});
  ConvFuture fine = server.submit(a, layer_a_.x);
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(doomed.state(), RequestState::kDeadlineExceeded);
  EXPECT_EQ(fine.state(), RequestState::kDone);
  EXPECT_EQ(server.metrics().deadline_expired_in_queue.value(), 1u);
  EXPECT_EQ(server.metrics().completed.value(), 1u);
}

TEST_F(ServeTest, CancelWinsWhileQueuedAndExactlyOnce) {
  ConvServer server({.dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture fut = server.submit(a, layer_a_.x);
  EXPECT_TRUE(fut.cancel());
  EXPECT_FALSE(fut.cancel());  // second cancel loses: already terminal
  EXPECT_EQ(fut.state(), RequestState::kCancelled);
  EXPECT_EQ(server.metrics().cancelled.value(), 1u);
  // The queue slot is still swept (and never executed).
  server.drain();
  EXPECT_EQ(server.metrics().completed.value(), 0u);
  EXPECT_EQ(server.metrics().queue_depth.value(), 0);
}

TEST_F(ServeTest, CancelLosesAfterExecution) {
  ConvServer server({.dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture fut = server.submit(a, layer_a_.x);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_FALSE(fut.cancel());
  EXPECT_EQ(fut.state(), RequestState::kDone);
  EXPECT_EQ(server.metrics().cancelled.value(), 0u);
}

// Batch-hook rendezvous: lets a test hold a dispatcher exactly at the point
// where the batch has left the queue but no request is claimed yet.
std::mutex g_gate_mu;
std::condition_variable g_gate_cv;
bool g_in_hook = false;
bool g_release_hook = false;

void gate_hook(std::size_t /*plan*/, std::size_t /*batch*/) {
  std::unique_lock<std::mutex> lock(g_gate_mu);
  g_in_hook = true;
  g_gate_cv.notify_all();
  g_gate_cv.wait(lock, [] { return g_release_hook; });
}

void reset_gate() {
  std::lock_guard<std::mutex> lock(g_gate_mu);
  g_in_hook = false;
  g_release_hook = false;
}

void wait_for_hook() {
  std::unique_lock<std::mutex> lock(g_gate_mu);
  g_gate_cv.wait(lock, [] { return g_in_hook; });
}

void release_hook() {
  std::lock_guard<std::mutex> lock(g_gate_mu);
  g_release_hook = true;
  g_gate_cv.notify_all();
}

TEST_F(ServeTest, CancellationRacingBatchDispatchLosesTheClaimRaceCleanly) {
  reset_gate();
  testing_hooks::set_batch_hook(&gate_hook);
  {
    ConvServer server({.dispatchers = 1});
    const PlanId a = server.register_plan(spec_a());
    ConvFuture fut = server.submit(a, layer_a_.x);
    // The dispatcher has picked the batch up (it is inside the hook, past
    // the queue) but has not claimed the request: a cancel arriving *now* is
    // the race the claim protocol must serialize. The request is still
    // kQueued, so cancel wins and the claim must observe it.
    wait_for_hook();
    EXPECT_TRUE(fut.cancel());
    release_hook();
    server.drain();
    EXPECT_EQ(fut.state(), RequestState::kCancelled);
    EXPECT_EQ(server.metrics().cancelled.value(), 1u);
    EXPECT_EQ(server.metrics().completed.value(), 0u);
    // Conservation: the cancelled request is the only terminal outcome.
    EXPECT_EQ(server.metrics().terminal(), server.metrics().submitted.value());
  }
  testing_hooks::set_batch_hook(nullptr);
}

TEST_F(ServeTest, DrainWaitsForInflightBatchThenRejectsNewWork) {
  reset_gate();
  testing_hooks::set_batch_hook(&gate_hook);
  {
    ConvServer server({.dispatchers = 1});
    const PlanId a = server.register_plan(spec_a());
    ConvFuture f1 = server.submit(a, layer_a_.x);
    ConvFuture f2 = server.submit(a, layer_a_.x);
    wait_for_hook();  // both requests are inflight, held at the hook

    std::atomic<bool> drained{false};
    std::thread drainer([&] {
      server.drain();
      drained.store(true);
    });
    // Drain must not complete while the batch is still inflight.
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(drained.load());
    // ...and new work is already refused while draining.
    ConvFuture late = server.submit(a, layer_a_.x);
    EXPECT_EQ(late.state(), RequestState::kRejected);
    EXPECT_EQ(server.metrics().rejected_draining.value(), 1u);

    release_hook();
    drainer.join();
    EXPECT_TRUE(drained.load());
    EXPECT_EQ(f1.state(), RequestState::kDone);
    EXPECT_EQ(f2.state(), RequestState::kDone);
    EXPECT_EQ(server.metrics().queue_depth.value(), 0);
    EXPECT_EQ(server.metrics().inflight.value(), 0);
  }
  testing_hooks::set_batch_hook(nullptr);
}

// --- Metrics JSON: assertions go through the exported document, pinning
// the export format itself (the same parser the bench harness uses). ---

TEST_F(ServeTest, MetricsJsonReportsDrainedQueueAndRejections) {
  ConvServer server({.max_queue = 1, .dispatchers = 0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture ok = server.submit(a, layer_a_.x);
  ConvFuture shed = server.submit(a, layer_a_.x);  // forced backpressure
  EXPECT_EQ(shed.state(), RequestState::kRejected);
  server.drain();

  const std::string json = server.metrics_json();
  EXPECT_EQ(json_number_at(json, "gauges", "queue_depth"), 0.0);
  EXPECT_EQ(json_number_at(json, "gauges", "inflight"), 0.0);
  EXPECT_EQ(json_number_at(json, "counters", "rejected_queue_full"), 1.0);
  EXPECT_EQ(json_number_at(json, "counters", "submitted"), 2.0);
  EXPECT_EQ(json_number_at(json, "counters", "completed"), 1.0);
  EXPECT_EQ(json_number_at(json, "counters", "batches_dispatched"), 1.0);
  // Latency histograms saw exactly the completed request.
  EXPECT_EQ(json_number_at(json, "\"end_to_end\"", "count"), 1.0);
  EXPECT_GT(json_number_at(json, "\"end_to_end\"", "p50"), 0.0);
  EXPECT_GE(json_number_at(json, "\"end_to_end\"", "p99"),
            json_number_at(json, "\"end_to_end\"", "p50"));
  // Per-plan batch stats for plan "0".
  EXPECT_EQ(json_number_at(json, "plans", "batches"), 1.0);
  EXPECT_EQ(json_number_at(json, "plans", "mean_batch"), 1.0);
  // Absent keys come back NaN, not garbage.
  EXPECT_TRUE(std::isnan(json_number_at(json, "counters", "no_such_counter")));
}

// --- Trace-level batched equivalence (the oracle extension) ---

TEST(ServeTrace, BatchedEqualsSerialBitForBit_ManualDispatch) {
  const auto trace = flash::testing::make_serve_trace({.seed = 0x7ace});
  const auto report = flash::testing::HConvOracle().run_trace(trace, /*dispatchers=*/0);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ServeTrace, BatchedEqualsSerialBitForBit_DispatcherThread) {
  const auto trace =
      flash::testing::make_serve_trace({.seed = 0x7ace2, .plans = 2, .requests = 6});
  const auto report = flash::testing::HConvOracle().run_trace(trace, /*dispatchers=*/1);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ServeTrace, GeneratorIsDeterministicAndReproducible) {
  const auto a = flash::testing::make_serve_trace({.seed = 99});
  const auto b = flash::testing::make_serve_trace({.seed = 99});
  ASSERT_EQ(a.spec, b.spec);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].plan, b.requests[i].plan);
    EXPECT_EQ(a.requests[i].x.data(), b.requests[i].x.data());
  }
  // The printed spec line round-trips (the stress tier's repro path).
  flash::testing::ServeTraceSpec parsed;
  ASSERT_TRUE(flash::testing::parse_serve_trace_spec(a.spec.describe(), parsed));
  EXPECT_EQ(parsed, a.spec);
  const auto c = flash::testing::make_serve_trace(parsed);
  ASSERT_EQ(c.requests.size(), a.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(c.requests[i].x.data(), a.requests[i].x.data());
  }
  // Different seeds give different traces.
  const auto other = flash::testing::make_serve_trace({.seed = 100});
  EXPECT_TRUE(other.spec.plans != a.spec.plans || other.spec.requests != a.spec.requests ||
              other.requests[0].x.data() != a.requests[0].x.data());
}

// --- Serve-layer bugfix regressions (PR6) ---

// Pre-fix, a cold server (no batch timed yet) configured with
// default_retry_after_s = 0 told rejected clients to retry after 0.0 s — an
// immediate-retry herd exactly when the server had the least information.
// The fix floors every estimate at kMinRetryAfterS.
TEST_F(ServeTest, ColdStartRejectRetryAfterHasPositiveFloor) {
  ConvServer server({.max_queue = 0, .dispatchers = 0, .default_retry_after_s = 0.0});
  const PlanId a = server.register_plan(spec_a());
  ConvFuture fut = server.submit(a, layer_a_.x);
  ASSERT_EQ(fut.state(), RequestState::kRejected);
  EXPECT_GT(fut.retry_after_s(), 0.0);
  EXPECT_GE(fut.retry_after_s(), kMinRetryAfterS);

  // A sane configured default is passed through unclamped on cold start.
  ConvServer configured({.max_queue = 0, .dispatchers = 0, .default_retry_after_s = 0.25});
  const PlanId b = configured.register_plan(spec_a());
  EXPECT_DOUBLE_EQ(configured.submit(b, layer_a_.x).retry_after_s(), 0.25);
}

// Pre-fix, the batch-time estimate used the truncating integer filter
// (3*prev + sample) / 4, whose fixpoints sit below the target (feeding a
// constant 7 from prev=3 converges to 4 and stays there). The Q8 fixed-point
// filter with a rounding readout converges onto the target exactly, from
// above and from below.
TEST(ServeEwma, RoundingFilterConvergesFromBothSides) {
  // First sample seeds the filter directly.
  EXPECT_EQ(ewma::ewma_ns(ewma::update_q8(0, 1000)), 1000u);

  // From above: 1000 -> constant 7.
  std::uint64_t q8 = ewma::update_q8(0, 1000);
  for (int i = 0; i < 64; ++i) q8 = ewma::update_q8(q8, 7);
  EXPECT_EQ(ewma::ewma_ns(q8), 7u);

  // From below: 3 -> constant 7 (the truncating filter sticks at 4 here).
  q8 = ewma::update_q8(0, 3);
  for (int i = 0; i < 64; ++i) q8 = ewma::update_q8(q8, 7);
  EXPECT_EQ(ewma::ewma_ns(q8), 7u);

  // Steady state is a fixpoint of the readout for assorted magnitudes.
  for (const std::uint64_t v : {1ull, 3ull, 1001ull, 12345ull}) {
    q8 = ewma::update_q8(0, v + 1000);
    for (int i = 0; i < 64; ++i) q8 = ewma::update_q8(q8, v);
    EXPECT_EQ(ewma::ewma_ns(q8), v) << "target " << v;
    q8 = ewma::update_q8(q8, v);
    EXPECT_EQ(ewma::ewma_ns(q8), v) << "not a fixpoint at " << v;
  }

  // First-sample audit: a genuine 0 ns batch must not recreate the "unset"
  // sentinel (which would zero the warm estimate back to the cold default).
  const std::uint64_t zero_batch = ewma::update_q8(0, 0);
  EXPECT_GT(zero_batch, 0u);
  EXPECT_EQ(ewma::ewma_ns(zero_batch), 1u);
}

// Empty histograms must export literal zeros — a 0/0 NaN in any quantile or
// mean field would corrupt the whole JSON document (JSON has no NaN
// literal). Asserted on the exported text via json_number_at, which is what
// pins the guard in append_histogram_json.
TEST(ServeMetricsJson, EmptyHistogramExportsZerosNotNan) {
  const ServerMetrics fresh;
  const std::string json = fresh.to_json();
  for (const char* h : {"\"queue_wait\"", "\"service\"", "\"end_to_end\""}) {
    EXPECT_EQ(json_number_at(json, h, "count"), 0.0) << h;
    EXPECT_EQ(json_number_at(json, h, "mean"), 0.0) << h;
    EXPECT_EQ(json_number_at(json, h, "p50"), 0.0) << h;
    EXPECT_EQ(json_number_at(json, h, "p99"), 0.0) << h;
  }
  EXPECT_EQ(json.find(": nan"), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);

  SessionMetrics sessions;
  const std::string sjson = sessions.to_json();
  EXPECT_EQ(json_number_at(sjson, "\"session_e2e\"", "count"), 0.0);
  EXPECT_EQ(json_number_at(sjson, "\"session_e2e\"", "mean"), 0.0);
  EXPECT_EQ(sjson.find(": nan"), std::string::npos);
  EXPECT_EQ(sjson.find(": inf"), std::string::npos);
}

// --- on_terminal re-entrancy audit (PR-9) ----------------------------------
//
// The contract under test: the callback fires exactly once, always with no
// server or request locks held, on every terminal path — so a callback may
// freely call back INTO the serving layer (submit a follow-up, register
// another callback, inspect metrics) without deadlocking. The audit found
// one defect adjacent to this path (cancel() updated the metrics counter
// after publishing kCancelled, racing server destruction — fixed in
// conv_server.cpp); these tests pin the locking discipline itself.

TEST_F(ServeTest, OnTerminalMaySubmitFollowUpFromInsideTheCallback) {
  ConvServer server({.dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());

  // Chain three requests, each submitted from the previous one's terminal
  // callback on the dispatching thread. Any lock held across the callback
  // would deadlock dispatch_once() re-entering submit().
  std::vector<ConvFuture> chain;
  chain.push_back(server.submit(plan, layer_a_.x, {.stream = 0}));
  std::atomic<int> fired{0};
  std::function<void(std::size_t)> arm = [&](std::size_t depth) {
    chain.back().on_terminal([&, depth] {
      fired.fetch_add(1);
      if (depth < 2) {
        chain.push_back(
            server.submit(plan, layer_a_.x, {.stream = depth + 1}));
        arm(depth + 1);
      }
    });
  };
  arm(0);
  while (server.dispatch_once()) {
  }
  server.drain();

  EXPECT_EQ(fired.load(), 3);
  ASSERT_EQ(chain.size(), 3u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(chain[i].state(), RequestState::kDone) << "request " << i;
    // Each chained request is still bit-identical to its serial run: the
    // callback path is invisible to the determinism contract.
    protocol::HConvProtocol proto(ctx_a_, bfv::PolyMulBackend::kNtt, std::nullopt,
                                  layer_a_.spec.seed);
    protocol::ConvRunner runner(proto);
    const auto serial = runner.run(layer_a_.x, layer_a_.weights, 1, 0,
                                   static_cast<std::uint64_t>(i) << 32);
    EXPECT_EQ(chain[i].result().client_share.data(), serial.client_share.data());
  }
}

TEST_F(ServeTest, OnTerminalFiresExactlyOnceOnEveryTerminalPath) {
  ConvServer server({.max_queue = 1, .dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());

  // kDone path, registered before dispatch.
  std::atomic<int> done_fired{0};
  ConvFuture done_fut = server.submit(plan, layer_a_.x, {.stream = 0});
  done_fut.on_terminal([&] { done_fired.fetch_add(1); });
  // kRejected path: queue full (bound 1). The rejected future is terminal
  // at submit-return; its callback must fire immediately, on this thread.
  std::atomic<int> rejected_fired{0};
  ConvFuture rejected = server.submit(plan, layer_a_.x, {});
  EXPECT_EQ(rejected.state(), RequestState::kRejected);
  rejected.on_terminal([&] { rejected_fired.fetch_add(1); });
  EXPECT_EQ(rejected_fired.load(), 1);

  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(done_fired.load(), 1);
  // Registration after terminal fires immediately — and re-registration
  // from inside the callback (same future, already terminal) is re-entrant
  // rather than deadlocking.
  std::atomic<int> late_fired{0};
  done_fut.on_terminal([&] {
    late_fired.fetch_add(1);
    if (late_fired.load() == 1) done_fut.on_terminal([&] { late_fired.fetch_add(1); });
  });
  EXPECT_EQ(late_fired.load(), 2);

  // kCancelled path: the winning cancel fires the callback exactly once.
  std::atomic<int> cancel_fired{0};
  ConvFuture cancelled = server.submit(plan, layer_a_.x, {});
  cancelled.on_terminal([&] { cancel_fired.fetch_add(1); });
  ASSERT_TRUE(cancelled.cancel());
  EXPECT_EQ(cancel_fired.load(), 1);
  EXPECT_TRUE(server.dispatch_once());   // pops the cancelled slot, runs nothing
  EXPECT_EQ(cancel_fired.load(), 1);     // the pickup must not re-fire it
  EXPECT_FALSE(server.dispatch_once());

  // kDeadlineExceeded-at-admission path.
  std::atomic<int> dl_fired{0};
  ConvFuture expired = server.submit(plan, layer_a_.x, {.deadline = now() - 1ms});
  EXPECT_EQ(expired.state(), RequestState::kDeadlineExceeded);
  expired.on_terminal([&] { dl_fired.fetch_add(1); });
  EXPECT_EQ(dl_fired.load(), 1);

  server.drain();
  EXPECT_EQ(done_fired.load(), 1);
  EXPECT_EQ(cancel_fired.load(), 1);
}

TEST_F(ServeTest, OnTerminalReplacementKeepsExactlyOneUnfiredCallback) {
  ConvServer server({.dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());
  ConvFuture fut = server.submit(plan, layer_a_.x, {});
  std::atomic<int> first{0}, second{0};
  fut.on_terminal([&] { first.fetch_add(1); });
  fut.on_terminal([&] { second.fetch_add(1); });  // replaces the unfired first
  EXPECT_TRUE(server.dispatch_once());
  server.drain();
  EXPECT_EQ(first.load(), 0);
  EXPECT_EQ(second.load(), 1);
}

// --- injected monotonic clock (PR-9) ---------------------------------------
//
// Deadlines are evaluated on serve::now() — steady_clock plus a test-only
// offset — so these tests age requests deterministically instead of
// sleeping, and a wall-clock step (NTP, suspend/resume) can never expire a
// request early in production.

class ClockGuard {
 public:
  ~ClockGuard() { testing_hooks::reset_clock(); }
};

TEST_F(ServeTest, InjectedClockExpiresQueuedRequestAtBatchPickup) {
  ClockGuard guard;
  ConvServer server({.dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());

  ConvFuture fut = server.submit(plan, layer_a_.x, {.timeout = 1h});
  EXPECT_EQ(fut.state(), RequestState::kQueued);
  // Age the queue 2 hours in zero real time: the batch-pickup deadline
  // check must expire the request without running it.
  testing_hooks::advance_clock(2h);
  EXPECT_TRUE(server.dispatch_once());
  EXPECT_EQ(fut.state(), RequestState::kDeadlineExceeded);
  server.drain();
  EXPECT_EQ(server.metrics().deadline_expired_in_queue.value(), 1u);
  EXPECT_EQ(server.metrics().terminal(), server.metrics().submitted.value());
}

TEST_F(ServeTest, InjectedClockExpiresDeadlineAtAdmission) {
  ClockGuard guard;
  ConvServer server({.dispatchers = 0});
  const PlanId plan = server.register_plan(spec_a());

  const auto deadline = now() + 1h;
  testing_hooks::advance_clock(2h);
  ConvFuture fut = server.submit(plan, layer_a_.x, {.deadline = deadline});
  EXPECT_EQ(fut.state(), RequestState::kDeadlineExceeded);
  EXPECT_EQ(server.metrics().deadline_expired_at_admission.value(), 1u);
  server.drain();
}

TEST(ServeClock, InjectionIsMonotonicAndResets) {
  ClockGuard guard;
  const auto before = now();
  testing_hooks::advance_clock(5min);
  const auto advanced = now();
  EXPECT_GE(advanced - before, 5min);
  // Negative deltas are ignored: the serve clock never runs backwards, even
  // under test injection (monotonicity is the production contract).
  testing_hooks::advance_clock(-10min);
  EXPECT_GE(now(), advanced);
  testing_hooks::reset_clock();
  EXPECT_LT(now() - before, 5min);
}

}  // namespace
}  // namespace flash::serve
