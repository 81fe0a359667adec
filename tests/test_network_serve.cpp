// Deterministic-scheduler tier for the network session layer
// (ARCHITECTURE.md §10): whole-network sessions over ConvServer, with
// manual dispatch so every interleaving is chosen by the test. The
// multi-threaded companion is the network phase of test_serve_stress.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "bfv/context.hpp"
#include "serve/network_session.hpp"
#include "testing/generators.hpp"
#include "testing/oracle.hpp"

namespace flash::serve {
namespace {

using namespace std::chrono_literals;

/// A small residual network (stem + 2 blocks + FC) plus the context its
/// convs serve under.
class NetworkServeTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 0x5e55;
  static constexpr std::size_t kInC = 2, kWidth = 2, kSpatial = 5, kClasses = 3;

  NetworkServeTest() : params_(bfv::BfvParams::create(1024, 17, 44)), ctx_(params_) {
    std::mt19937_64 rng(kSeed);
    stack_ = tensor::LayerStack::small_resnet(kInC, kWidth, /*depth=*/2, kClasses, kSpatial,
                                              /*w_bits=*/4, /*a_bits=*/4, rng);
    input_ = tensor::random_activations(kInC, kSpatial, kSpatial, 4, rng);
  }

  std::shared_ptr<const NetworkProgram> build_program(ConvServer& server) const {
    return std::make_shared<const NetworkProgram>(
        NetworkProgram::build(server, stack_, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt,
                              kSeed, {kInC, kSpatial, kSpatial}));
  }

  bfv::BfvParams params_;
  bfv::BfvContext ctx_;
  tensor::LayerStack stack_;
  tensor::Tensor3 input_;
};

TEST_F(NetworkServeTest, SingleSessionManualDispatchCompletes) {
  ConvServer server({.dispatchers = 0});
  NetworkServer net(server);
  const auto program = build_program(server);
  EXPECT_EQ(program->conv_layers, 5u);    // stem + 2 x (c1, c2)
  EXPECT_EQ(program->layers.size(), 8u);  // + 2 joins + FC

  SessionOptions opts;
  opts.stream_base = 0;
  opts.record_layer_outputs = true;
  NetworkSession session = net.start(program, input_, opts);
  EXPECT_EQ(session.state(), SessionState::kRunning);  // nothing dispatched yet
  net.run_to_completion();

  ASSERT_EQ(session.state(), SessionState::kCompleted) << session.error();
  EXPECT_EQ(session.layers_completed(), program->layers.size());
  ASSERT_TRUE(session.has_logits());
  ASSERT_EQ(session.logits().size(), kClasses);

  // Bit-identical to the serial bare-runner run with the same stream base...
  std::vector<tensor::Tensor3> serial_outputs;
  const tensor::NetworkResult serial =
      run_network_serial(stack_, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt, kSeed, input_,
                         /*stream_base=*/0, &serial_outputs);
  EXPECT_EQ(session.features(), serial.features);
  EXPECT_EQ(session.logits(), serial.logits);
  const auto served_outputs = session.layer_outputs();
  ASSERT_EQ(served_outputs.size(), serial_outputs.size());
  for (std::size_t l = 0; l < served_outputs.size(); ++l) {
    EXPECT_EQ(served_outputs[l], serial_outputs[l]) << "layer " << l;
  }

  // ...and to the cleartext forward.
  const tensor::NetworkResult clear =
      stack_.forward(input_, tensor::LayerStack::reference_executor());
  EXPECT_EQ(session.features(), clear.features);
  EXPECT_EQ(session.logits(), clear.logits);
}

TEST_F(NetworkServeTest, CrossSessionLayersBatchTogether) {
  // Two sessions of the same program, submitted before any dispatch: every
  // dispatch must pick up both sessions' same-plan layer in one batch.
  ConvServer server({.max_batch = 4, .dispatchers = 0});
  NetworkServer net(server);
  const auto program = build_program(server);

  std::mt19937_64 rng(kSeed + 1);
  const tensor::Tensor3 input_b = tensor::random_activations(kInC, kSpatial, kSpatial, 4, rng);
  NetworkSession a = net.start(program, input_,
                               {.stream_base = 0 * kSessionStreamStride,
                                .record_layer_outputs = true});
  NetworkSession b = net.start(program, input_b,
                               {.stream_base = 1 * kSessionStreamStride,
                                .record_layer_outputs = true});
  net.run_to_completion();
  ASSERT_EQ(a.state(), SessionState::kCompleted) << a.error();
  ASSERT_EQ(b.state(), SessionState::kCompleted) << b.error();

  // The lockstep advance batches layer k of A with layer k of B: every conv
  // plan saw at least one 2-request batch.
  const auto batches = server.metrics().plan_batches();
  std::size_t plans_with_pairs = 0;
  for (const auto& [plan, stats] : batches) {
    if (stats.max_batch >= 2) ++plans_with_pairs;
  }
  EXPECT_EQ(plans_with_pairs, batches.size());
  EXPECT_GT(plans_with_pairs, 0u);

  // Batching never changes bytes: both sessions equal their serial runs.
  const auto expect_serial = [&](const NetworkSession& session, const tensor::Tensor3& input,
                                 std::uint64_t base) {
    const tensor::NetworkResult serial = run_network_serial(
        stack_, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt, kSeed, input, base);
    EXPECT_EQ(session.features(), serial.features);
    EXPECT_EQ(session.logits(), serial.logits);
  };
  expect_serial(a, input_, 0);
  expect_serial(b, input_b, kSessionStreamStride);
}

TEST_F(NetworkServeTest, SessionBudgetZeroDeadlineExceededDeterministically) {
  ConvServer server({.dispatchers = 0});
  NetworkServer net(server);
  const auto program = build_program(server);

  NetworkSession doomed = net.start(program, input_, {.budget = 0ns});
  // The deadline is checked before the first conv submit OR sheds it at
  // admission inside the server; either way the session is terminal without
  // any compute and the server queue stays empty.
  net.run_to_completion();
  EXPECT_EQ(doomed.state(), SessionState::kDeadlineExceeded);
  EXPECT_TRUE(doomed.done());
  EXPECT_EQ(server.metrics().completed.value(), 0u);
  EXPECT_EQ(server.metrics().queue_depth.value(), 0);

  const SessionMetrics& sm = net.session_metrics();
  EXPECT_EQ(sm.started.value(), 1u);
  EXPECT_EQ(sm.deadline_exceeded.value(), 1u);
  EXPECT_EQ(sm.terminal(), sm.started.value());
  EXPECT_EQ(sm.active.value(), 0);
}

TEST_F(NetworkServeTest, MidSessionBackpressureFailsSessionWithRetryHint) {
  // Queue of 1: session A's first conv occupies it; session B's first conv
  // is shed at submit, so B terminates kRejected before any of its layers
  // ran — and its error carries the backpressure hint.
  ConvServer server({.max_queue = 1, .dispatchers = 0});
  NetworkServer net(server);
  const auto program = build_program(server);

  NetworkSession a = net.start(program, input_, {.stream_base = 0});
  NetworkSession b = net.start(program, input_, {.stream_base = kSessionStreamStride});
  EXPECT_EQ(b.state(), SessionState::kRejected);
  EXPECT_NE(b.error().find("retry_after_s="), std::string::npos);
  EXPECT_EQ(b.layers_completed(), 0u);

  net.run_to_completion();
  ASSERT_EQ(a.state(), SessionState::kCompleted) << a.error();

  const SessionMetrics& sm = net.session_metrics();
  EXPECT_EQ(sm.started.value(), 2u);
  EXPECT_EQ(sm.completed.value(), 1u);
  EXPECT_EQ(sm.rejected.value(), 1u);
  EXPECT_EQ(sm.terminal(), sm.started.value());
  EXPECT_EQ(sm.active.value(), 0);
}

TEST_F(NetworkServeTest, SessionMetricsJsonExportsPerLayerHistograms) {
  ConvServer server({.dispatchers = 0});
  NetworkServer net(server);
  const auto program = build_program(server);
  NetworkSession session = net.start(program, input_, {.stream_base = 0});
  net.run_to_completion();
  ASSERT_EQ(session.state(), SessionState::kCompleted) << session.error();

  const std::string json = net.metrics_json();
  EXPECT_EQ(json_number_at(json, "counters", "started"), 1.0);
  EXPECT_EQ(json_number_at(json, "counters", "completed"), 1.0);
  EXPECT_EQ(json_number_at(json, "counters", "layers_completed"),
            static_cast<double>(program->layers.size()));
  EXPECT_EQ(json_number_at(json, "gauges", "active"), 0.0);
  EXPECT_EQ(json_number_at(json, "\"session_e2e\"", "count"), 1.0);
  EXPECT_GT(json_number_at(json, "\"session_e2e\"", "p50"), 0.0);
  // Every layer index got its own histogram with exactly this session.
  EXPECT_EQ(net.session_metrics().layer_count(), program->layers.size());
  EXPECT_EQ(json_number_at(json, "\"0\"", "count"), 1.0);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST_F(NetworkServeTest, RectAndStridedLayersServeBitIdentical) {
  // Hand-built stack covering the geometry satellites: a strided 3x3, a
  // rectangular 1x3, and the FC head — through the served path.
  std::mt19937_64 rng(0xd1ce);
  tensor::LayerStack stack;
  tensor::NetLayer strided;
  strided.weights = tensor::random_weights(2, kInC, 3, 4, rng);
  strided.stride = 2;
  strided.pad = 1;
  strided.requant_shift = 3;
  strided.clamp_bits = 4;
  strided.relu = true;
  stack.layers.push_back(std::move(strided));
  tensor::NetLayer rect;
  rect.weights = tensor::random_weights(2, 2, 1, 3, 4, rng);
  rect.requant_shift = 3;
  rect.clamp_bits = 4;
  rect.relu = true;
  stack.layers.push_back(std::move(rect));
  const tensor::Shape3 out_shape = tensor::LayerStack::layer_output_shape(
      tensor::LayerStack::layer_output_shape({kInC, kSpatial, kSpatial}, stack.layers[0]),
      stack.layers[1]);
  tensor::NetLayer fc;
  fc.kind = tensor::NetLayer::Kind::kFullyConnected;
  fc.fc_out = 2;
  fc.fc_weights = tensor::random_weights(2, out_shape.volume(), 1, 1, 4, rng).data();
  stack.layers.push_back(std::move(fc));

  ConvServer server({.dispatchers = 0});
  NetworkServer net(server);
  const auto program = std::make_shared<const NetworkProgram>(
      NetworkProgram::build(server, stack, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt, 0xd1ce,
                            {kInC, kSpatial, kSpatial}));
  NetworkSession session = net.start(program, input_, {.stream_base = 0});
  net.run_to_completion();
  ASSERT_EQ(session.state(), SessionState::kCompleted) << session.error();

  const tensor::NetworkResult serial = run_network_serial(
      stack, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt, 0xd1ce, input_, /*stream_base=*/0);
  const tensor::NetworkResult clear =
      stack.forward(input_, tensor::LayerStack::reference_executor());
  EXPECT_EQ(session.features(), serial.features);
  EXPECT_EQ(session.logits(), serial.logits);
  EXPECT_EQ(serial.features, clear.features);
  EXPECT_EQ(serial.logits, clear.logits);
}

TEST_F(NetworkServeTest, ProgramBuildValidatesShapes) {
  ConvServer server({.dispatchers = 0});
  // Residual join before anything was saved.
  tensor::LayerStack bad;
  tensor::NetLayer join;
  join.kind = tensor::NetLayer::Kind::kResidualAdd;
  bad.layers.push_back(join);
  EXPECT_THROW(NetworkProgram::build(server, bad, ctx_, bfv::PolyMulBackend::kNtt, std::nullopt,
                                     1, {kInC, kSpatial, kSpatial}),
               std::invalid_argument);
  // FC not last.
  tensor::LayerStack fc_first = stack_;
  tensor::NetLayer fc = fc_first.layers.back();
  fc_first.layers.insert(fc_first.layers.begin(), fc);
  EXPECT_THROW(NetworkProgram::build(server, fc_first, ctx_, bfv::PolyMulBackend::kNtt,
                                     std::nullopt, 1, {kInC, kSpatial, kSpatial}),
               std::invalid_argument);
  // Input shape mismatch at start().
  NetworkServer net(server);
  const auto program = build_program(server);
  EXPECT_THROW(net.start(program, tensor::Tensor3(kInC + 1, kSpatial, kSpatial)),
               std::invalid_argument);
}

// --- Trace-level network equivalence (the oracle extension) ---

TEST(NetworkTraceOracle, BatchedEqualsSerialBitForBit_ManualDispatch) {
  const auto trace = flash::testing::make_network_trace({.seed = 0x4e7});
  const auto report = flash::testing::HConvOracle().run_network_trace(trace, /*dispatchers=*/0);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(NetworkTraceOracle, BatchedEqualsSerialBitForBit_DispatcherThread) {
  const auto trace = flash::testing::make_network_trace({.seed = 0x4e72, .sessions = 3});
  const auto report =
      flash::testing::HConvOracle().run_network_trace(trace, /*dispatchers=*/1, /*max_batch=*/3);
  EXPECT_TRUE(report.ok) << report.summary();
}

}  // namespace
}  // namespace flash::serve
