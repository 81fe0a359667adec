// Sharded serving tests (ctest -L mt): a ShardRouter in front of forked
// worker processes must be *bit-invisible* — any shard count serves the
// identical bytes as a bare serial ConvRunner — and its failure machinery
// (deadline gate, cancellation, dead-shard rejection, chaos kill/respawn)
// must conserve metrics. The TSan-relevant threads here are the router's
// per-shard readers; workers are whole separate processes.
//
// The kill/respawn paths fork with reader threads live, which thread
// sanitizers do not support — those cases are compiled out under TSan and
// covered by the ASan soak job instead (tests/README.md).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/serve_clock.hpp"
#include "shard/shard_router.hpp"
#include "tensor/conv.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"
#include "wire/wire_format.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLASH_TSAN 1
#endif
#endif
#if !defined(FLASH_TSAN) && defined(__SANITIZE_THREAD__)
#define FLASH_TSAN 1
#endif

namespace flash::shard {
namespace {

wire::PlanSpecWire plan_from_case(const testing::ConvCase& layer) {
  wire::PlanSpecWire spec;
  spec.params = layer.params;
  spec.backend = bfv::PolyMulBackend::kNtt;
  spec.protocol_seed = layer.spec.seed;
  spec.weights = layer.weights;
  spec.stride = layer.spec.stride;
  spec.pad = static_cast<std::size_t>(layer.spec.pad);
  spec.in_h = layer.spec.h;
  spec.in_w = layer.spec.w;
  return spec;
}

testing::ConvCase small_case(std::uint64_t seed) {
  return testing::make_conv_case(
      {.seed = seed, .c = 1, .m = 2, .h = 4, .w = 4, .k = 2, .stride = 1, .pad = 0});
}

// --- determinism: the tentpole contract ------------------------------------

TEST(ShardRouter, TraceIsBitIdenticalAcrossOneTwoAndFourShards) {
  const testing::HConvOracle oracle;
  const auto trace = testing::make_serve_trace({0x5a4d1, 3, 10});
  for (std::size_t shards : {1u, 2u, 4u}) {
    const auto report = oracle.run_trace(trace, /*dispatchers=*/0, /*max_batch=*/3, shards);
    EXPECT_TRUE(report.ok) << "shards=" << shards << ": " << report.summary();
  }
}

TEST(ShardRouter, ShardedMatchesInProcessServerOnTheSameTrace) {
  const testing::HConvOracle oracle;
  const auto trace = testing::make_serve_trace({0x5a4d2, 2, 8});
  // Both backends are independently pinned to the bare serial runner, which
  // transitively pins them to each other; run both to make the cross-check
  // explicit in one test.
  EXPECT_TRUE(oracle.run_trace(trace, 1, 4, 0).ok);
  EXPECT_TRUE(oracle.run_trace(trace, 0, 4, 2).ok);
}

TEST(ShardRouter, SingleRequestRoundTrip) {
  const auto layer = small_case(0x5a4d3);
  ShardRouter router({.shards = 2});
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));
  ShardFuture fut = router.submit(plan, layer.x, {.stream = 0});
  fut.wait();
  ASSERT_EQ(fut.state(), ShardRequestState::kDone) << fut.error();
  const tensor::Tensor3 expect = tensor::conv2d(layer.x, layer.weights, {1, 0});
  EXPECT_EQ(fut.result().reconstruct(layer.params.t).data(), expect.data());
  EXPECT_EQ(fut.stream(), 0u);
  EXPECT_LT(fut.shard(), 2u);
}

// --- warm-up handshake -----------------------------------------------------

TEST(ShardRouter, RegistrationDedupesByContentAndReportsVerdict) {
  const auto layer = small_case(0x5a4d4);
  ShardRouter router({.shards = 2, .certify = serve::CertifyPolicy::kWarn});
  const ShardPlanId a = router.register_plan(plan_from_case(layer));
  const ShardPlanId b = router.register_plan(plan_from_case(layer));
  EXPECT_EQ(a, b);  // same spec bytes -> same plan, no second round-trip
  // kWarn certifies every unique plan: the verdict must be a definite
  // proven/unproven, never "uncertified".
  const wire::PlanVerdict v = router.plan_verdict(a);
  EXPECT_TRUE(v == wire::PlanVerdict::kProven || v == wire::PlanVerdict::kUnproven);

  ShardRouter off_router({.shards = 1, .certify = serve::CertifyPolicy::kOff});
  const ShardPlanId c = off_router.register_plan(plan_from_case(layer));
  EXPECT_EQ(off_router.plan_verdict(c), wire::PlanVerdict::kUncertified);
}

TEST(ShardRouter, SamePlanAlwaysLandsOnItsContentHashShard) {
  const auto a = small_case(0x5a4d5);
  const auto b = small_case(0x5a4d6);
  ShardRouter r1({.shards = 4});
  ShardRouter r2({.shards = 4});
  // Shard assignment is a pure function of the plan bytes — identical
  // across router instances (and, transitively, across restarts).
  EXPECT_EQ(r1.shard_of(r1.register_plan(plan_from_case(a))),
            r2.shard_of(r2.register_plan(plan_from_case(a))));
  EXPECT_EQ(r1.shard_of(r1.register_plan(plan_from_case(b))),
            r2.shard_of(r2.register_plan(plan_from_case(b))));
}

// --- router-side deadlines (monotonic clock, test-injected) ----------------

TEST(ShardRouter, ExpiredDeadlineNeverCrossesTheWire) {
  const auto layer = small_case(0x5a4d7);
  ShardRouter router({.shards = 1});
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  ShardSubmitOptions opts;
  opts.deadline = serve::now() - std::chrono::seconds(1);
  ShardFuture fut = router.submit(plan, layer.x, opts);
  EXPECT_EQ(fut.state(), ShardRequestState::kDeadlineExceeded);
  router.drain();
  EXPECT_EQ(router.metrics().deadline_expired.value(), 1u);
  EXPECT_EQ(router.metrics().terminal(), router.metrics().submitted.value());
}

TEST(ShardRouter, ClockInjectionExpiresFutureDeadlineAtAdmission) {
  const auto layer = small_case(0x5a4d8);
  ShardRouter router({.shards = 1});
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  // A 1-hour deadline is comfortably in the future... until the injected
  // clock jumps 2 hours: admission must then reject on the *monotonic*
  // serve clock, proving the gate never consults a wall clock.
  const auto deadline = serve::now() + std::chrono::hours(1);
  serve::testing_hooks::advance_clock(std::chrono::hours(2));
  ShardFuture fut = router.submit(plan, layer.x, {.deadline = deadline});
  serve::testing_hooks::reset_clock();
  EXPECT_EQ(fut.state(), ShardRequestState::kDeadlineExceeded);
  router.drain();
}

// --- cancellation ----------------------------------------------------------

TEST(ShardRouter, CancelBeforeResponseWinsExactlyOnce) {
  const auto layer = small_case(0x5a4d9);
  // A dwell slows the worker enough that cancel reliably beats the response.
  RouterOptions opts;
  opts.shards = 1;
  opts.worker_dwell_ns = 50'000'000;  // 50 ms
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  ShardFuture fut = router.submit(plan, layer.x, {.stream = 0});
  const bool won = fut.cancel();
  const bool won_again = fut.cancel();
  EXPECT_FALSE(won && won_again);  // at most one winning cancel
  fut.wait();
  if (won) {
    EXPECT_EQ(fut.state(), ShardRequestState::kCancelled);
  } else {
    EXPECT_EQ(fut.state(), ShardRequestState::kDone);
  }
  router.drain();
  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.terminal(), m.submitted.value());
  // The worker may still have computed the cancelled request; its late
  // response must have been dropped, not double-finished.
  EXPECT_EQ(m.completed.value() + m.cancelled.value(), 1u);
}

// --- write-path liveness and frame-size admission --------------------------

TEST(ShardRouter, LargeFrameBurstWithTinySocketBuffersDoesNotDeadlock) {
  // Regression: submit() used to hold the worker mutex across a blocking
  // socket write. With frames larger than the socket buffers and the worker
  // mid-batch writing results, a submit could block mid-frame holding the
  // mutex the reader needs to drain those results — router write, worker
  // write, and reader all waiting on each other. Tiny buffers plus
  // larger-than-buffer frames (2x32x32 inputs ~16 KiB, results ~2x that)
  // reproduce that regime; the writer-thread design must complete anyway.
  const auto layer = testing::make_conv_case(
      {.seed = 0x5a4de, .c = 2, .m = 2, .h = 32, .w = 32, .k = 3, .stride = 1, .pad = 0});
  RouterOptions opts;
  opts.shards = 1;
  opts.certify = serve::CertifyPolicy::kOff;
  opts.worker_max_batch = 4;
  opts.worker_dwell_ns = 20'000'000;  // keep the worker busy while submits pile up
  opts.socket_buffer_bytes = 4096;
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  std::vector<ShardFuture> futs;
  for (std::size_t i = 0; i < 12; ++i) {
    futs.push_back(router.submit(plan, layer.x, {.stream = i}));
  }
  for (auto& f : futs) {
    ASSERT_TRUE(f.wait_for(std::chrono::seconds(120))) << "write-path deadlock";
    EXPECT_EQ(f.state(), ShardRequestState::kDone) << f.error();
  }
  router.drain();
  EXPECT_EQ(router.metrics().completed.value(), futs.size());
  EXPECT_EQ(router.metrics().terminal(), router.metrics().submitted.value());
}

TEST(ShardRouter, OversizedRequestIsRejectedAtSubmitNotSentToTheWorker) {
  // An 8x32x32 input encodes past a 64 KiB frame cap. Written anyway it
  // would die at the worker's header gate, be read as a worker death, and
  // burn the whole respawn budget resending the same frame; the router must
  // instead reject just this request at admission.
  const auto layer = testing::make_conv_case(
      {.seed = 0x5a4df, .c = 8, .m = 2, .h = 32, .w = 32, .k = 3, .stride = 1, .pad = 0});
  RouterOptions opts;
  opts.shards = 1;
  opts.certify = serve::CertifyPolicy::kOff;
  opts.max_frame_bytes = std::uint64_t{1} << 16;
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  ShardFuture fut = router.submit(plan, layer.x, {.stream = 0});
  EXPECT_EQ(fut.state(), ShardRequestState::kRejected);
  EXPECT_NE(fut.error().find("max_frame_bytes"), std::string::npos) << fut.error();
  router.drain();
  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.rejected.value(), 1u);
  EXPECT_EQ(m.terminal(), m.submitted.value());
  EXPECT_EQ(m.respawns.value(), 0u);  // the shard never saw the frame, let alone died

  // The same shard still serves plans whose frames fit.
  const auto small = small_case(0x5a4e0);
  const ShardPlanId small_plan = router.register_plan(plan_from_case(small));
  ShardFuture ok = router.submit(small_plan, small.x, {.stream = 1});
  ok.wait();
  EXPECT_EQ(ok.state(), ShardRequestState::kDone) << ok.error();
}

TEST(ShardRouter, OversizedResultDegradesToAPerRequestFailure) {
  // The request fits the 64 KiB cap but its result (two 8x32x32 shares)
  // does not: the worker must answer that seq with an in-band error — never
  // write a frame the router's header gate would read as a worker death.
  const auto layer = testing::make_conv_case(
      {.seed = 0x5a4e1, .c = 4, .m = 8, .h = 32, .w = 32, .k = 1, .stride = 1, .pad = 0});
  RouterOptions opts;
  opts.shards = 1;
  opts.certify = serve::CertifyPolicy::kOff;
  opts.max_frame_bytes = std::uint64_t{1} << 16;
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  ShardFuture fut = router.submit(plan, layer.x, {.stream = 0});
  fut.wait();
  EXPECT_EQ(fut.state(), ShardRequestState::kFailed);
  EXPECT_NE(fut.error().find("max_frame_bytes"), std::string::npos) << fut.error();
  router.drain();
  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.failed.value(), 1u);
  EXPECT_EQ(m.terminal(), m.submitted.value());
  EXPECT_EQ(m.respawns.value(), 0u);  // the worker stayed up throughout
}

TEST(ShardWorker, DesyncedStreamMidCoalescingAnswersBatchThenDiesLoudly) {
  // Garbage right behind a valid submit lands in the coalescing window. The
  // worker must still answer the already-admitted request (its write side is
  // intact) and then exit 2 immediately — matching run()'s contract for a
  // malformed frame between dispatches, not linger until the next read.
  const auto layer = small_case(0x5a4e2);
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(sv[0]);
    WorkerOptions wopts;
    wopts.certify = serve::CertifyPolicy::kOff;
    ::_exit(run_worker(sv[1], 0, wopts));
  }
  ::close(sv[1]);
  wire::FrameChannel ch(sv[0]);

  wire::ByteWriter spec_w;
  wire::encode(plan_from_case(layer), spec_w);
  wire::Frame reg;
  reg.type = wire::MsgType::kRegisterPlan;
  reg.seq = 1;
  reg.body = spec_w.take();
  ASSERT_TRUE(ch.write_frame(reg));
  const std::optional<wire::Frame> reg_reply = ch.read_frame();
  ASSERT_TRUE(reg_reply.has_value());
  wire::ByteReader ack_r(reg_reply->body);
  const wire::RegisterPlanAck ack = wire::decode_register_plan_ack(ack_r);
  ASSERT_NE(ack.verdict, wire::PlanVerdict::kRejected) << ack.detail;

  // One send() carrying a valid submit plus trailing garbage: by the time
  // the worker finishes parsing the submit, the garbage is already readable,
  // so the coalescing loop deterministically hits the desynced bytes.
  wire::ByteWriter sub_w;
  wire::SubmitBody sub;
  sub.plan_id = ack.plan_id;
  sub.stream = 0;
  sub.x = layer.x;
  wire::encode(sub, sub_w);
  wire::Frame submit;
  submit.type = wire::MsgType::kSubmit;
  submit.seq = 2;
  submit.body = sub_w.take();
  wire::Bytes burst = wire::encode_frame(submit);
  burst.insert(burst.end(), 64, std::uint8_t{0xee});  // no FLASHWIR magic
  for (std::size_t off = 0; off < burst.size();) {
    const ssize_t n = ::send(sv[0], burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }

  const std::optional<wire::Frame> result = ch.read_frame();
  ASSERT_TRUE(result.has_value()) << "admitted request was never answered";
  EXPECT_EQ(result->type, wire::MsgType::kResult);
  EXPECT_EQ(result->seq, 2u);
  wire::ByteReader res_r(result->body);
  EXPECT_TRUE(wire::decode_result(res_r).ok);

  EXPECT_FALSE(ch.read_frame().has_value());  // EOF: the worker died right after
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << "protocol bug must exit loudly, not cleanly";
}

TEST(ShardRouter, UnknownPlanThrowsWithoutBreakingConservation) {
  ShardRouter router({.shards = 1});
  EXPECT_THROW(router.submit(0, tensor::Tensor3(1, 1, 1), {}), std::invalid_argument);
  // The throw must leave no metrics trace: nothing was admitted, so nothing
  // ever reaches a terminal state for it.
  EXPECT_EQ(router.metrics().submitted.value(), 0u);
  EXPECT_EQ(router.metrics().terminal(), 0u);
}

// --- metrics ---------------------------------------------------------------

TEST(ShardRouter, RouterAndWorkerMetricsAgreeAfterDrain) {
  const auto layer = small_case(0x5a4da);
  ShardRouter router({.shards = 2});
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));
  constexpr std::size_t kRequests = 6;
  std::vector<ShardFuture> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(router.submit(plan, layer.x, {.stream = i}));
  }
  router.drain();
  for (auto& f : futs) EXPECT_EQ(f.state(), ShardRequestState::kDone) << f.error();

  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.submitted.value(), kRequests);
  EXPECT_EQ(m.completed.value(), kRequests);
  EXPECT_EQ(m.terminal(), m.submitted.value());

  // The owning shard's worker (a separate process) reports the same count
  // over the wire; the other shard served nothing for this plan.
  const std::string json = router.worker_metrics_json(router.shard_of(plan));
  EXPECT_EQ(serve::json_number_at(json, "counters", "completed"),
            static_cast<double>(kRequests));
  const std::string rjson = router.metrics_json();
  EXPECT_EQ(serve::json_number_at(rjson, "counters", "completed"),
            static_cast<double>(kRequests));
}

TEST(ShardRouter, WorkerMetricsCarryRegistrationPhases) {
  const auto layer = small_case(0x5a4f1);
  ShardRouter router({.shards = 1, .certify = serve::CertifyPolicy::kWarn});
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));
  // The worker's ConvServer document crosses the wire unchanged, so one
  // registration shows up as one prepare and one certification sample.
  const std::string json = router.worker_metrics_json(router.shard_of(plan));
  EXPECT_EQ(serve::json_number_at(json, "\"register_prepare\"", "count"), 1.0) << json;
  EXPECT_EQ(serve::json_number_at(json, "\"register_certify\"", "count"), 1.0) << json;
}

// --- chaos: kill/respawn (not under TSan — fork with live reader threads) --

#if !defined(FLASH_TSAN)

TEST(ShardRouter, KillMidTraceIsBitInvisibleAndConservesMetrics) {
  const testing::HConvOracle oracle;
  const auto trace = testing::make_serve_trace({0x5a4db, 2, 12});
  const auto report =
      oracle.run_trace(trace, /*dispatchers=*/0, /*max_batch=*/2, /*shards=*/2,
                       /*kill_shard_every=*/5);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ShardRouter, RespawnReplaysRegistrationsAndFailsOverPendingWork) {
  const auto layer = small_case(0x5a4dc);
  RouterOptions opts;
  opts.shards = 1;
  opts.worker_dwell_ns = 20'000'000;  // keep requests in flight long enough to kill
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  std::vector<ShardFuture> futs;
  for (std::size_t i = 0; i < 4; ++i) {
    futs.push_back(router.submit(plan, layer.x, {.stream = i}));
  }
  router.kill_worker(0);
  router.drain();

  const tensor::Tensor3 expect = tensor::conv2d(layer.x, layer.weights, {1, 0});
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].state(), ShardRequestState::kDone)
        << "request " << i << ": " << futs[i].error();
    EXPECT_EQ(futs[i].result().reconstruct(layer.params.t).data(), expect.data());
  }
  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.kills.value(), 1u);
  EXPECT_GE(m.respawns.value(), 1u);
  EXPECT_EQ(m.completed.value(), futs.size());
  EXPECT_EQ(m.terminal(), m.submitted.value());

  // The respawned worker still serves: registration replay restored the
  // plan cache (same worker-local id), warm-up handshake and all.
  ShardFuture after = router.submit(plan, layer.x, {.stream = 99});
  after.wait();
  EXPECT_EQ(after.state(), ShardRequestState::kDone) << after.error();
}

TEST(ShardRouter, ShardDiesForGoodAfterRespawnBudgetAndRejectsCleanly) {
  const auto layer = small_case(0x5a4dd);
  RouterOptions opts;
  opts.shards = 1;
  opts.max_respawns = 1;
  opts.worker_dwell_ns = 20'000'000;
  ShardRouter router(opts);
  const ShardPlanId plan = router.register_plan(plan_from_case(layer));

  // Kill until the respawn budget (1) is exhausted and the shard goes dead:
  // from then on submits must be rejected terminally — never hang, never
  // crash. Kills landing mid-recovery are no-ops, so loop rather than
  // counting on exactly two.
  bool dead = false;
  for (int round = 0; round < 400 && !dead; ++round) {
    ShardFuture fut = router.submit(plan, layer.x, {.stream = static_cast<std::uint64_t>(round)});
    router.kill_worker(0);
    fut.wait();
    dead = fut.state() == ShardRequestState::kRejected;
    if (!dead) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(dead) << "shard never exhausted its respawn budget";
  router.drain();

  ShardFuture rejected = router.submit(plan, layer.x, {.stream = 2000});
  rejected.wait();
  EXPECT_EQ(rejected.state(), ShardRequestState::kRejected);
  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.terminal(), m.submitted.value());
  EXPECT_GE(m.kills.value(), 1u);
  EXPECT_EQ(m.respawns.value(), 1u);  // the budget
}

#endif  // !FLASH_TSAN

}  // namespace
}  // namespace flash::shard
