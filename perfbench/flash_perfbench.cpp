// Repository benchmark: real ResNet-18 HConv traffic at N = 4096 through the
// public serving APIs, every output checked against the cleartext conv.
//
//   flash_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <path>]
//
// Workloads (perfbench/README.md records why each exists):
//   resnet18_warm         kFft; the ten convs conv1 .. layer2.1.conv2 are
//                         registered in setup, then one closed-loop session
//                         submits them in network order (layer k+1 only after
//                         layer k returns).
//   resnet18_cold_stage2  kApproxFft; each iteration builds a fresh
//                         ConvServer, registers layer2.0.downsample with fresh
//                         weights and serves a short closed-loop burst on it.
//   sharded_ntt_open      kNtt; stage-2 3x3/s1 plans are warm on a
//                         ShardRouter, one per shard (up to three); one
//                         generator thread submits Poisson arrivals at a
//                         fixed offered rate per shard and latency is timed
//                         from each request's due time.
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. A traced run records spans around the benchmark's own
// calls, replays the served plans after the measured window has closed
// (ConvRunner::prepare/run, certify_conv, HConvProtocol::run_stream phases,
// PolyMulEngine/Encryptor/Decryptor kernels, wire codecs) and writes Chrome
// trace-event JSON to --trace-out. Any output outside tolerance, replay that
// is not bit-identical, or plan below 128-bit security makes the exit code
// non-zero.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bfv/context.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/params.hpp"
#include "bfv/polymul_engine.hpp"
#include "core/flash_accelerator.hpp"
#include "core/thread_pool.hpp"
#include "encoding/encoder.hpp"
#include "hemath/sampler.hpp"
#include "protocol/conv_geometry.hpp"
#include "protocol/conv_runner.hpp"
#include "protocol/plan_certificate.hpp"
#include "serve/conv_server.hpp"
#include "shard/shard_router.hpp"
#include "sparsefft/planner.hpp"
#include "tensor/conv.hpp"
#include "tensor/quant.hpp"
#include "tensor/resnet.hpp"
#include "trace.hpp"
#include "wire/wire_format.hpp"

namespace {

using namespace flash;
using perfbench::Clock;
using perfbench::Span;
using perfbench::Trace;

// Paper scale: N = 4096, t = 2^20, 49-bit q, W4A4 layers.
constexpr std::size_t kRingDegree = 4096;
constexpr int kLogT = 20;
constexpr int kLogQ = 49;
constexpr int kActBits = 4;
constexpr int kWeightBits = 4;
constexpr double kMinSecurityBits = 128.0;

constexpr std::size_t kSetupRounds = 5;     // setup_s is the median of these
constexpr std::size_t kInputsPerLayer = 3;  // seeded activations cycled per layer
constexpr std::size_t kColdRequests = 8;     // served per fresh plan
/// Compute pool threads and shard workers: one core short of the machine,
/// at most three. The spare core absorbs background interference; with a
/// pool as wide as the machine every parallel_for waited on whichever
/// thread was descheduled, and warm-run spreads tripled.
constexpr std::size_t kMaxComputeThreads = 3;
constexpr std::size_t kUnitCostReps = 16;
/// Offered load of sharded_ntt_open per shard (each shard holds one plan): a
/// third of the 12.1 req/s capacity measured on three shards when this
/// benchmark was added (BENCHMARK.json records it). Kept low because
/// queueing multiplies any slowdown of the host into latency.
constexpr double kShardOfferedRpsPerShard = 4.0 / 3.0;
/// Seed of the sharded workload's arrival schedule (see run_sharded).
constexpr std::uint64_t kScheduleSeed = 20251016;
/// Collector poll period for sharded completions (the latency resolution).
constexpr auto kCollectorPoll = std::chrono::microseconds(200);

const std::vector<std::string> kWarmLayers = {
    "conv1",          "layer1.0.conv1", "layer1.0.conv2",      "layer1.1.conv1", "layer1.1.conv2",
    "layer2.0.conv1", "layer2.0.conv2", "layer2.0.downsample", "layer2.1.conv1", "layer2.1.conv2"};
const std::string kColdLayer = "layer2.0.downsample";
const std::vector<std::string> kShardLayers = {"layer2.0.conv2", "layer2.1.conv1",
                                               "layer2.1.conv2"};

// Purposes of the seed-derived random streams.
enum Purpose : std::uint64_t { kWeights = 1, kInputs, kPlanSeed, kArrivals, kPicks, kReplay };

std::uint64_t derive(std::uint64_t seed, Purpose purpose, std::uint64_t index) {
  return hemath::derive_stream_seed(seed, (static_cast<std::uint64_t>(purpose) << 32) + index);
}

std::mt19937_64 rng_for(std::uint64_t seed, Purpose purpose, std::uint64_t index) {
  return std::mt19937_64(derive(seed, purpose, index));
}

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Linear-interpolated quantile, p in [0, 1]; NaN for an empty sample.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set of this process and of every reaped child, in MB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::size_t compute_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return std::clamp<std::size_t>(n > 1 ? static_cast<std::size_t>(n) - 1 : 1, 1,
                                 kMaxComputeThreads);
}

/// Runs fn(t) for t in [0, threads) on as many threads, joins them all, then
/// rethrows the first exception any of them raised.
template <typename Fn>
void on_threads(std::size_t threads, const Fn& fn) {
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> running;
  for (std::size_t t = 0; t < threads; ++t) {
    running.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : running) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

bfv::BfvParams paper_params() {
  const bfv::BfvParams params = bfv::BfvParams::create(kRingDegree, kLogT, kLogQ);
  const double bits =
      bfv::estimated_security_bits(params.n, std::log2(static_cast<double>(params.q)));
  if (bits < kMinSecurityBits) {
    throw std::runtime_error("parameter set estimated at " + std::to_string(bits) +
                             " bits, below the 128-bit floor");
  }
  return params;
}

const char* backend_name(bfv::PolyMulBackend b) {
  switch (b) {
    case bfv::PolyMulBackend::kNtt: return "ntt";
    case bfv::PolyMulBackend::kFft: return "fft";
    case bfv::PolyMulBackend::kApproxFft: return "approx-fft";
    case bfv::PolyMulBackend::kPow2: return "pow2";
  }
  return "?";
}

// --- Workload inputs -------------------------------------------------------

/// One servable ResNet-18 layer with its seeded weights, activations and
/// cleartext references.
struct LayerCase {
  tensor::LayerConfig layer;
  tensor::Tensor4 weights;
  std::uint64_t protocol_seed = 0;
  std::vector<tensor::Tensor3> inputs;
  std::vector<tensor::Tensor3> refs;  // tensor::conv2d of each input
  std::int64_t tolerance = 0;         // allowed |error| in sum-product LSBs
};

tensor::LayerConfig resnet_layer(const std::string& name) {
  for (const tensor::LayerConfig& l : tensor::resnet18_conv_layers()) {
    if (l.name == name) return l;
  }
  throw std::invalid_argument("no ResNet-18 layer named " + name);
}

/// Half an LSB of the layer's requantization to 4-bit activations: the
/// largest error the next layer cannot see.
std::int64_t half_requant_lsb(const tensor::LayerConfig& l) {
  const int shift =
      tensor::sum_product_bits(kActBits, kWeightBits, l.in_c * l.kernel * l.kernel) - kActBits;
  return std::int64_t{1} << (shift - 1);
}

LayerCase make_case(const std::string& name, std::uint64_t seed, std::uint64_t index,
                    std::size_t inputs, bool approximate) {
  LayerCase c;
  c.layer = resnet_layer(name);
  std::mt19937_64 wrng = rng_for(seed, kWeights, index);
  c.weights =
      tensor::random_weights(c.layer.out_c, c.layer.in_c, c.layer.kernel, kWeightBits, wrng);
  std::mt19937_64 xrng = rng_for(seed, kInputs, index);
  for (std::size_t i = 0; i < inputs; ++i) {
    c.inputs.push_back(
        tensor::random_activations(c.layer.in_c, c.layer.in_h, c.layer.in_w, kActBits, xrng));
  }
  c.protocol_seed = derive(seed, kPlanSeed, index);
  c.tolerance = approximate ? half_requant_lsb(c.layer) : 0;
  return c;
}

void compute_refs(std::vector<LayerCase>& cases, core::ThreadPool* pool) {
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases[i].refs.assign(cases[i].inputs.size(), tensor::Tensor3{});
    for (std::size_t j = 0; j < cases[i].inputs.size(); ++j) jobs.emplace_back(i, j);
  }
  core::for_range(pool, jobs.size(), [&](std::size_t k) {
    LayerCase& c = cases[jobs[k].first];
    const std::size_t j = jobs[k].second;
    c.refs[j] = tensor::conv2d(c.inputs[j], c.weights, {c.layer.stride, c.layer.pad});
  });
}

serve::PlanSpec plan_spec(const LayerCase& c, const bfv::BfvContext& ctx,
                          bfv::PolyMulBackend backend,
                          const std::optional<fft::FxpFftConfig>& cfg) {
  serve::PlanSpec spec;
  spec.ctx = &ctx;
  spec.backend = backend;
  spec.approx_config = cfg;
  spec.protocol_seed = c.protocol_seed;
  spec.weights = c.weights;
  spec.stride = c.layer.stride;
  spec.pad = c.layer.pad;
  spec.in_h = c.layer.in_h;
  spec.in_w = c.layer.in_w;
  return spec;
}

// --- Output checks ---------------------------------------------------------

/// Request outcomes plus the error of every output element, in sum-product
/// LSBs against tensor::conv2d.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t elements = 0;
  double sum_sq = 0;
  std::int64_t max_abs = 0;

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "flash_perfbench: FAILED: %s\n", why.c_str());
  }
  double rms() const { return elements ? std::sqrt(sum_sq / static_cast<double>(elements)) : 0; }
};

/// Count one served request; fail it if any element is off by more than
/// the case's tolerance (0 on the exact backends).
void check_result(const protocol::ConvRunnerResult& r, const LayerCase& c, std::size_t input,
                  std::uint64_t t, Tally& tally) {
  ++tally.attempted;
  const tensor::Tensor3 got = r.reconstruct(t);
  const tensor::Tensor3& ref = c.refs[input];
  if (got.size() != ref.size()) {
    tally.fail(c.layer.name + ": output shape differs from the cleartext conv");
    return;
  }
  const auto ti = static_cast<std::int64_t>(t);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::int64_t d = (got.data()[i] - ref.data()[i]) % ti;
    if (d > ti / 2) d -= ti;
    if (d < -ti / 2) d += ti;
    tally.sum_sq += static_cast<double>(d) * static_cast<double>(d);
    worst = std::max(worst, d < 0 ? -d : d);
  }
  tally.elements += ref.size();
  tally.max_abs = std::max(tally.max_abs, worst);
  if (worst > c.tolerance) {
    tally.fail(c.layer.name + ": output off by " + std::to_string(worst) + " LSBs (tolerance " +
               std::to_string(c.tolerance) + ")");
  }
}

/// Client<->server HE traffic of one served request.
double he_bytes(const protocol::ConvRunnerResult& r) {
  return static_cast<double>(r.bytes_client_to_server + r.bytes_server_to_client);
}

bool same_bytes(const protocol::ConvRunnerResult& a, const protocol::ConvRunnerResult& b) {
  return a.client_share.data() == b.client_share.data() &&
         a.server_share.data() == b.server_share.data();
}

// --- Plan properties -------------------------------------------------------

std::vector<protocol::ConvUnit> conv_units(const LayerCase& c) {
  return protocol::enumerate_conv_units(kRingDegree, c.layer.in_c, c.layer.in_h, c.layer.in_w,
                                        c.weights, c.layer.stride, c.layer.pad);
}

std::size_t channel_tiles(const LayerCase& c, const protocol::ConvUnit& u) {
  return encoding::ConvEncoder(kRingDegree, c.layer.in_c, u.patch_h, u.patch_w,
                               u.weights.kernel_h(), u.weights.kernel_w())
      .geometry()
      .channel_tiles();
}

/// Share of nonzero coefficients over every encoded weight polynomial one
/// request multiplies (each of the C'·kh·kw weight slots of a polynomial is
/// a distinct coefficient, so nonzero weights are nonzero coefficients).
double weight_density(const LayerCase& c) {
  double nonzero = 0, slots = 0;
  for (const protocol::ConvUnit& u : conv_units(c)) {
    const auto nnz = static_cast<double>(
        std::count_if(u.weights.data().begin(), u.weights.data().end(),
                      [](tensor::i64 v) { return v != 0; }));
    const double polys = static_cast<double>(u.weights.out_channels() * channel_tiles(c, u));
    nonzero += static_cast<double>(u.tile_count) * nnz;
    slots += static_cast<double>(u.tile_count) * polys * static_cast<double>(kRingDegree);
  }
  return nonzero / slots;
}

/// Merged sparse-FFT multiplications over dense ones for the layer's weight
/// transforms (paper §IV-B accounting), weighted by transform count.
double sparse_mult_fraction(const LayerCase& c) {
  const std::size_t m = kRingDegree / 2;
  const double dense = static_cast<double>(sparsefft::SparseFftPlan::dense_cost(m).complex_mults);
  double weighted = 0, transforms = 0;
  for (const protocol::ConvUnit& u : conv_units(c)) {
    const encoding::ConvEncoder enc(kRingDegree, c.layer.in_c, u.patch_h, u.patch_w,
                                    u.weights.kernel_h(), u.weights.kernel_w());
    const sparsefft::SparsityPattern pattern = enc.weight_pattern();
    std::vector<std::size_t> folded;
    for (std::size_t p : pattern.nonzeros()) folded.push_back(p % m);
    const sparsefft::SparseFftPlan plan(m, sparsefft::SparsityPattern(m, std::move(folded)));
    const double n = static_cast<double>(u.tile_count * u.weights.out_channels() *
                                         enc.geometry().channel_tiles());
    weighted += n * static_cast<double>(plan.cost().merged_mults) / dense;
    transforms += n;
  }
  return weighted / transforms;
}

struct PlanRecord {
  std::string verdict = "unknown";
  double margin_bits = std::nan("");
  bool proven = false;
};

void print_plan(const LayerCase& c, bfv::PolyMulBackend backend, const PlanRecord& rec) {
  const bfv::BfvParams params = paper_params();
  const double security =
      bfv::estimated_security_bits(params.n, std::log2(static_cast<double>(params.q)));
  std::printf("plan %-20s backend=%s verdict=%s margin_bits=%.2f weight_density=%.5f "
              "security_bits=%.1f\n",
              c.layer.name.c_str(), backend_name(backend), rec.verdict.c_str(), rec.margin_bits,
              weight_density(c), security);
}

PlanRecord record_of(const std::optional<protocol::PlanCertificate>& cert) {
  PlanRecord rec;
  if (cert.has_value()) {
    rec.verdict = analysis::to_string(cert->overall.verdict);
    rec.margin_bits = cert->overall.margin_bits;
    rec.proven = cert->proven();
  }
  return rec;
}

// --- Run results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The first served request of a plan, kept for the traced replay.
struct ServedSample {
  std::size_t input = 0;
  std::uint64_t stream = 0;
  protocol::ConvRunnerResult result;
};

struct CaseStats {
  std::vector<double> served_s;  // submit -> result, per request
  std::optional<ServedSample> sample;
};

struct RunResult {
  // End to end.
  std::vector<double> setup_s, inference_s, request_s;
  double window_s = 0;
  std::uint64_t completed = 0, inferences = 0;
  double comm_bytes = 0;
  double rss_mb = 0;
  // Serving layer.
  std::vector<double> register_ms;
  double queue_wait_ns = 0, queue_waits = 0, service_ns = 0, services = 0;
  double batches = 0, batched_requests = 0;
  double max_load_share = 1.0;  // one server process holds every plan
  double failed_over = 0;
  double generator_lag_max_s = 0;
  std::size_t plans_unproven = 0;
  double min_margin_bits = std::numeric_limits<double>::infinity();
  std::vector<CaseStats> cases;
  Tally tally;
  std::vector<Metric> replay;  // per-layer metrics from the traced replay
  std::size_t window_spans = 0;

  void note_plan(const PlanRecord& rec) {
    if (!rec.proven) ++plans_unproven;
    if (std::isfinite(rec.margin_bits)) {
      min_margin_bits = std::min(min_margin_bits, rec.margin_bits);
    }
  }
  void add_server_metrics(const serve::ServerMetrics& m) {
    queue_wait_ns += static_cast<double>(m.queue_wait.sum_ns());
    queue_waits += static_cast<double>(m.queue_wait.count());
    service_ns += static_cast<double>(m.service.sum_ns());
    services += static_cast<double>(m.service.count());
    for (const auto& [plan, s] : m.plan_batches()) {
      batches += static_cast<double>(s.batches);
      batched_requests += static_cast<double>(s.requests);
    }
  }
};

// --- Traced replay ---------------------------------------------------------

/// HConvProfile's phases, in the order run_stream executes them.
const char* const kPhases[6] = {"share_encode", "encrypt", "weight_transform",
                                "cipher_mul",   "mask",    "decrypt"};

/// Replays every plan the workload served, after the measured window: plan
/// preparation, certification, the served request (which must come back
/// bit-identical), its HConv units phase by phase, kernel unit costs and
/// the wire codecs. Fills r.replay with the per-layer metrics. `pool` is
/// the compute pool the served path used (null: single-threaded, as in a
/// shard worker), so replayed times compare with served ones.
void replay(const std::vector<LayerCase>& cases, bfv::PolyMulBackend backend,
            const std::optional<fft::FxpFftConfig>& cfg, std::uint64_t seed,
            core::ThreadPool* pool, Trace& trace, RunResult& r) {
  const bfv::BfvParams params = paper_params();
  const bfv::BfvContext ctx(params);
  Span root(trace, "replay");

  std::vector<double> prepare_ms, certify_ms, run_ms, overhead_ms, density, mult_fraction;
  double spectra_bytes = 0, units = 0;
  double phase_s[6] = {};
  bfv::PolyMulCounters ops;
  std::mt19937_64 xrng = rng_for(seed, kReplay, 0);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const LayerCase& c = cases[i];
    const CaseStats& stats = r.cases[i];
    protocol::HConvProtocol proto(ctx, backend, cfg, c.protocol_seed, pool);
    protocol::ConvRunner runner(proto, pool);

    std::shared_ptr<const protocol::ConvPlan> plan;
    {
      Span s(trace, "ConvRunner::prepare", root.id(), 0, i + 1);
      plan = runner.prepare(c.layer.in_c, c.layer.in_h, c.layer.in_w, c.weights, c.layer.stride,
                            c.layer.pad);
      prepare_ms.push_back(seconds(Clock::now() - s.start()) * 1e3);
    }
    for (const auto& phase : plan->phases) {
      for (const auto& [shape, prepared] : phase.tiles) {
        for (const auto& row : prepared->spec) {
          for (const bfv::PlainSpectrum& sp : row) {
            spectra_bytes += static_cast<double>(sp.ntt.size() * sizeof(std::uint64_t) +
                                                 sp.fft.size() * sizeof(fft::cplx) +
                                                 sp.pow2.size() * sizeof(std::uint64_t));
          }
        }
      }
    }
    {
      Span s(trace, "certify_conv", root.id(), 0, i + 1);
      const protocol::PlanCertificate cert =
          protocol::certify_conv(params, backend, cfg, c.layer.in_c, c.layer.in_h, c.layer.in_w,
                                 c.weights, c.layer.stride, c.layer.pad);
      certify_ms.push_back(seconds(Clock::now() - s.start()) * 1e3);
      r.min_margin_bits = std::min(r.min_margin_bits, cert.overall.margin_bits);
      std::printf("replay %-20s verdict=%s margin_bits=%.2f\n", c.layer.name.c_str(),
                  analysis::to_string(cert.overall.verdict), cert.overall.margin_bits);
    }
    if (stats.sample.has_value()) {
      const ServedSample& sm = *stats.sample;
      protocol::ConvRunnerResult again;
      {
        Span s(trace, "ConvRunner::run", root.id(), 0, i + 1);
        again = runner.run(c.inputs[sm.input], *plan, sm.stream << 32);
        run_ms.push_back(seconds(Clock::now() - s.start()) * 1e3);
      }
      ++r.tally.attempted;
      if (!same_bytes(again, sm.result)) {
        r.tally.fail(c.layer.name +
                     ": ConvRunner::run replay is not bit-identical to the served bytes");
      }
      if (!stats.served_s.empty()) {
        overhead_ms.push_back(mean(stats.served_s) * 1e3 - run_ms.back());
      }
    }

    // HConv units, uncached: the weight_transform phase is what a request
    // pays when its plan's spectra are not resident.
    double plan_units = 0;
    for (const protocol::ConvUnit& u : conv_units(c)) {
      const tensor::Tensor3 patch =
          tensor::random_activations(c.layer.in_c, u.patch_h, u.patch_w, kActBits, xrng);
      Span s(trace, "HConvProtocol::run_stream", root.id(), 0, i + 1);
      const protocol::HConvResult hr = proto.run_stream(patch, u.weights, u.phase.index);
      const protocol::HConvProfile& p = hr.profile;
      const double phases[6] = {p.share_encode_s, p.encrypt_s, p.weight_transform_s,
                                p.cipher_transform_mul_s, p.mask_s, p.decrypt_s};
      // Phase timers are sums, so their spans are laid end to end from the
      // call's start; the sum never exceeds the call.
      Clock::time_point at = s.start();
      const auto tc = static_cast<double>(u.tile_count);
      for (int k = 0; k < 6; ++k) {
        const auto d = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(phases[k]));
        trace.add(std::string("phase.") + kPhases[k], at, at + d, s.id(), 0, i + 1);
        at += d;
        phase_s[k] += tc * phases[k];
      }
      plan_units += tc;
      ops.plain_transforms += u.tile_count * hr.ops.plain_transforms;
      ops.cipher_transforms += u.tile_count * hr.ops.cipher_transforms;
      ops.inverse_transforms += u.tile_count * hr.ops.inverse_transforms;
      ops.pointwise_products += u.tile_count * hr.ops.pointwise_products;
    }
    units += plan_units;
    if (stats.sample.has_value()) {
      ++r.tally.attempted;
      if (static_cast<double>(stats.sample->result.hconv_calls) != plan_units) {
        r.tally.fail(c.layer.name + ": served request ran " +
                     std::to_string(stats.sample->result.hconv_calls) +
                     " HConv units, the plan has " + std::to_string(plan_units));
      }
    }
    density.push_back(weight_density(c));
    mult_fraction.push_back(sparse_mult_fraction(c));
  }

  // Kernel unit costs on the first plan's own polynomials.
  const LayerCase& c0 = cases.front();
  const protocol::ConvUnit u0 = conv_units(c0).front();
  const encoding::ConvEncoder enc(kRingDegree, c0.layer.in_c, u0.patch_h, u0.patch_w,
                                  u0.weights.kernel_h(), u0.weights.kernel_w());
  bfv::Plaintext wpt = ctx.make_plaintext();
  const std::vector<tensor::i64> wcoeffs = enc.encode_weight(u0.weights, 0, 0);
  for (std::size_t k = 0; k < params.n; ++k) {
    wpt.poly[k] = hemath::from_signed(wcoeffs[k], params.t);
  }
  bfv::Plaintext xpt = ctx.make_plaintext();
  const std::vector<tensor::i64> xcoeffs = enc.encode_activation(
      tensor::random_activations(c0.layer.in_c, u0.patch_h, u0.patch_w, kActBits, xrng), 0);
  for (std::size_t k = 0; k < params.n; ++k) {
    xpt.poly[k] = hemath::from_signed(xcoeffs[k], params.t);
  }
  hemath::Sampler key_sampler(derive(seed, kReplay, 1));
  bfv::KeyGenerator keygen(ctx, key_sampler);
  const bfv::SecretKey sk = keygen.secret_key();
  const bfv::PreparedPublicKey ppk = bfv::prepare_public_key(ctx, keygen.public_key(sk));
  hemath::Sampler enc_sampler(derive(seed, kReplay, 2));
  bfv::Encryptor encryptor(ctx, enc_sampler);
  const bfv::Decryptor decryptor(ctx, sk);
  const bfv::PolyMulEngine engine(ctx, backend, cfg);

  const auto unit_cost_us = [&](const char* name, const auto& op) {
    std::vector<double> us;
    for (std::size_t k = 0; k < kUnitCostReps; ++k) {
      Span s(trace, name, root.id());
      op();
      us.push_back(seconds(Clock::now() - s.start()) * 1e6);
    }
    return median(us);
  };
  bfv::PlainSpectrum wspec;
  bfv::Ciphertext ct = ctx.make_ciphertext();
  bfv::CipherSpectrum cspec;
  bfv::SpectralAccumulator acc;
  const double transform_plain_us =
      unit_cost_us("PolyMulEngine::transform_plain", [&] { wspec = engine.transform_plain(wpt); });
  const double encrypt_us =
      unit_cost_us("Encryptor::encrypt", [&] { ct = encryptor.encrypt(xpt, ppk); });
  const double transform_cipher_us = unit_cost_us(
      "PolyMulEngine::transform_cipher", [&] { cspec = engine.transform_cipher_spectrum(ct.c0); });
  const double mac_us = unit_cost_us("PolyMulEngine::multiply_accumulate",
                                     [&] { engine.multiply_accumulate(cspec, wspec, acc); });
  const double finalize_us =
      unit_cost_us("PolyMulEngine::finalize", [&] { ct.c0 = engine.finalize(acc); });
  const double decrypt_us =
      unit_cost_us("Decryptor::decrypt", [&] { (void)decryptor.decrypt(ct); });

  // Wire codecs on each plan's served request and result.
  std::vector<double> encode_us, decode_us, frame_kb;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!r.cases[i].sample.has_value()) continue;
    const ServedSample& sm = *r.cases[i].sample;
    wire::Bytes submit_frame, result_frame;
    {
      Span s(trace, "wire::encode", root.id(), 0, i + 1);
      wire::SubmitBody body{0, sm.stream, cases[i].inputs[sm.input]};
      wire::ByteWriter w;
      wire::encode(body, w);
      submit_frame = wire::encode_frame({wire::MsgType::kSubmit, 1, w.take()});
      wire::ResultBody res;
      res.ok = true;
      res.result = sm.result;
      wire::ByteWriter rw;
      wire::encode(res, rw);
      result_frame = wire::encode_frame({wire::MsgType::kResult, 1, rw.take()});
      encode_us.push_back(seconds(Clock::now() - s.start()) * 1e6);
    }
    {
      Span s(trace, "wire::decode", root.id(), 0, i + 1);
      const wire::Frame sf = wire::decode_frame(submit_frame);
      wire::ByteReader sr(sf.body);
      const wire::SubmitBody sb = wire::decode_submit(sr);
      const wire::Frame rf = wire::decode_frame(result_frame);
      wire::ByteReader rr(rf.body);
      const wire::ResultBody rb = wire::decode_result(rr);
      decode_us.push_back(seconds(Clock::now() - s.start()) * 1e6);
      ++r.tally.attempted;
      if (sb.x.data() != cases[i].inputs[sm.input].data() || !same_bytes(rb.result, sm.result)) {
        r.tally.fail(cases[i].layer.name + ": wire round trip changed the request or result");
      }
    }
    frame_kb.push_back(static_cast<double>(submit_frame.size() + result_frame.size()) / 1024.0);
  }

  const double n = static_cast<double>(cases.size());
  auto& m = r.replay;
  m.push_back({"protocol.prepare_ms", mean(prepare_ms), "ms"});
  m.push_back({"analysis.certify_ms", mean(certify_ms), "ms"});
  m.push_back({"protocol.run_ms", mean(run_ms), "ms"});
  m.push_back({"serve.overhead_ms", mean(overhead_ms), "ms"});
  m.push_back({"protocol.hconv_units", units, "count"});
  for (int k = 0; k < 6; ++k) {
    m.push_back({std::string("protocol.phase.") + kPhases[k] + "_ms", phase_s[k] * 1e3 / n, "ms"});
  }
  m.push_back({"bfv.plain_transforms", static_cast<double>(ops.plain_transforms), "count"});
  m.push_back({"bfv.cipher_transforms", static_cast<double>(ops.cipher_transforms), "count"});
  m.push_back({"bfv.inverse_transforms", static_cast<double>(ops.inverse_transforms), "count"});
  m.push_back({"bfv.pointwise_products", static_cast<double>(ops.pointwise_products), "count"});
  m.push_back({"bfv.transform_plain_us", transform_plain_us, "us"});
  m.push_back({"bfv.transform_cipher_us", transform_cipher_us, "us"});
  m.push_back({"bfv.mac_us", mac_us, "us"});
  m.push_back({"bfv.finalize_us", finalize_us, "us"});
  m.push_back({"bfv.encrypt_us", encrypt_us, "us"});
  m.push_back({"bfv.decrypt_us", decrypt_us, "us"});
  m.push_back({"encoding.weight_density", mean(density), "ratio"});
  m.push_back({"sparsefft.mult_fraction", mean(mult_fraction), "ratio"});
  m.push_back({"protocol.plan_spectra_mb", spectra_bytes / 1e6, "MB"});
  m.push_back({"wire.encode_us", mean(encode_us), "us"});
  m.push_back({"wire.decode_us", mean(decode_us), "us"});
  m.push_back({"wire.frame_kb", mean(frame_kb), "KB"});
}

// --- Workloads -------------------------------------------------------------

RunResult run_warm(std::uint64_t seed, double window, Trace& trace) {
  const bfv::BfvParams params = paper_params();
  const bfv::BfvContext ctx(params);
  const auto backend = bfv::PolyMulBackend::kFft;
  core::ThreadPool pool(compute_threads());

  std::vector<LayerCase> cases;
  for (std::size_t i = 0; i < kWarmLayers.size(); ++i) {
    cases.push_back(make_case(kWarmLayers[i], seed, i, kInputsPerLayer, false));
  }
  compute_refs(cases, &pool);

  RunResult r;
  r.cases.resize(cases.size());
  serve::ServerOptions opts;
  opts.pool = &pool;
  std::unique_ptr<serve::ConvServer> server;
  std::vector<serve::PlanId> ids(cases.size());

  // Setup rounds: a fresh server registers every plan. ConvServer registers
  // different plans concurrently, so compute_threads() registering threads
  // take plans from a shared queue, largest first: certification runs
  // serially inside each registration and dominates set-up, and sharing it
  // out keeps one slow core from stretching the whole round. The last
  // round's server is measured, after one checked probe request per plan
  // has warmed it up.
  std::vector<std::size_t> largest_first(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) largest_first[i] = i;
  std::stable_sort(largest_first.begin(), largest_first.end(), [&](std::size_t a, std::size_t b) {
    return cases[a].weights.data().size() > cases[b].weights.data().size();
  });
  std::vector<double> register_ms(cases.size());
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    server.reset();
    Span span(trace, "setup");
    server = std::make_unique<serve::ConvServer>(opts);
    std::atomic<std::size_t> next{0};
    on_threads(compute_threads(), [&](std::size_t t) {
      for (std::size_t k; (k = next.fetch_add(1)) < largest_first.size();) {
        const std::size_t i = largest_first[k];
        Span s(trace, "serve.register_plan", span.id(), static_cast<int>(t) + 1);
        ids[i] = server->register_plan(plan_spec(cases[i], ctx, backend, std::nullopt));
        register_ms[i] = seconds(Clock::now() - s.start()) * 1e3;
      }
    });
    r.setup_s.push_back(seconds(Clock::now() - span.start()));
    r.register_ms.insert(r.register_ms.end(), register_ms.begin(), register_ms.end());
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    serve::SubmitOptions so;
    so.stream = 0;
    serve::ConvFuture probe = server->submit(ids[i], cases[i].inputs[0], so);
    probe.wait();
    if (probe.state() != serve::RequestState::kDone) {
      ++r.tally.attempted;
      r.tally.fail(cases[i].layer.name + " probe: " + probe.error());
    } else {
      check_result(probe.result(), cases[i], 0, params.t, r.tally);
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PlanRecord rec = record_of(server->plan_certificate(ids[i]));
    r.note_plan(rec);
    print_plan(cases[i], backend, rec);
  }

  // One closed-loop session walks the layers in network order: layer k+1
  // is submitted only after layer k's result is back and checked.
  std::mt19937_64 pick = rng_for(seed, kPicks, 0);
  std::uint64_t stream = 1;
  const std::size_t spans_before = trace.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window));
  Clock::time_point ready = start;
  for (std::uint64_t inf = 1; Clock::now() < end; ++inf) {
    Span inference(trace, "inference", 0, 1, inf);
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const std::size_t input = pick() % cases[k].inputs.size();
      serve::SubmitOptions so;
      so.stream = stream++;
      serve::ConvFuture f;
      Clock::time_point submitted;
      {
        Span req(trace, "serve.request", inference.id(), 1, inf);
        submitted = req.start();
        r.generator_lag_max_s = std::max(r.generator_lag_max_s, seconds(submitted - ready));
        f = server->submit(ids[k], cases[k].inputs[input], so);
        f.wait();
      }
      const double latency = seconds(Clock::now() - submitted);
      r.request_s.push_back(latency);
      r.cases[k].served_s.push_back(latency);
      if (f.state() != serve::RequestState::kDone) {
        ++r.tally.attempted;
        r.tally.fail(cases[k].layer.name + ": " + serve::to_string(f.state()) + " " + f.error());
      } else {
        const protocol::ConvRunnerResult& res = f.result();
        check_result(res, cases[k], input, params.t, r.tally);
        r.comm_bytes += he_bytes(res);
        ++r.completed;
        if (!r.cases[k].sample.has_value()) {
          r.cases[k].sample = ServedSample{input, *so.stream, res};
        }
      }
      ready = Clock::now();
    }
    r.inference_s.push_back(seconds(Clock::now() - inference.start()));
    ++r.inferences;
  }
  r.window_s = seconds(Clock::now() - start);
  r.window_spans = trace.size() - spans_before;
  r.add_server_metrics(server->metrics());
  server.reset();
  r.rss_mb = peak_rss_mb();
  if (trace.enabled()) replay(cases, backend, std::nullopt, seed, &pool, trace, r);
  return r;
}

RunResult run_cold(std::uint64_t seed, double window, Trace& trace) {
  const bfv::BfvParams params = paper_params();
  const bfv::BfvContext ctx(params);
  const auto backend = bfv::PolyMulBackend::kApproxFft;
  const fft::FxpFftConfig cfg = core::high_accuracy_approx_config(params.n, params.t);
  core::ThreadPool pool(compute_threads());
  serve::ServerOptions opts;
  opts.pool = &pool;

  RunResult r;
  r.cases.resize(1);  // every iteration serves the same layer shape
  std::vector<LayerCase> replayed;  // the first iteration's plan
  const std::size_t spans_before = trace.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window));
  // Iterations run until the window closes; each pays a full cold start
  // (fresh server, fresh weights: nothing is cached across iterations
  // except the process-wide transform tables).
  for (std::uint64_t it = 0; it == 0 || Clock::now() < end; ++it) {
    std::vector<LayerCase> one{make_case(kColdLayer, seed, it, kInputsPerLayer, true)};
    compute_refs(one, &pool);
    const LayerCase& c = one.front();
    Span span(trace, "cold_start", 0, 0, it + 1);
    const Clock::time_point t0 = span.start();
    auto server = std::make_unique<serve::ConvServer>(opts);
    serve::PlanId id = 0;
    {
      Span s(trace, "serve.register_plan", span.id(), 0, it + 1);
      id = server->register_plan(plan_spec(c, ctx, backend, cfg));
    }
    const Clock::time_point registered = Clock::now();
    r.setup_s.push_back(seconds(registered - t0));
    r.register_ms.push_back(seconds(registered - t0) * 1e3);
    const PlanRecord rec = record_of(server->plan_certificate(id));
    r.note_plan(rec);
    if (replayed.empty()) print_plan(c, backend, rec);
    // The first result ends the cold start, this workload's "inference";
    // the rest of the burst are the fresh plan's first warm requests.
    for (std::size_t k = 0; k < kColdRequests; ++k) {
      const std::size_t input = k % c.inputs.size();
      serve::ConvFuture f;
      Clock::time_point submitted;
      {
        Span s(trace, "serve.request", span.id(), 0, it + 1);
        submitted = s.start();
        serve::SubmitOptions so;
        so.stream = k + 1;
        f = server->submit(id, c.inputs[input], so);
        f.wait();
      }
      const Clock::time_point done = Clock::now();
      r.request_s.push_back(seconds(done - submitted));
      if (k == 0) {
        r.inference_s.push_back(seconds(done - t0));
        ++r.inferences;
      }
      if (f.state() != serve::RequestState::kDone) {
        ++r.tally.attempted;
        r.tally.fail(c.layer.name + ": " + serve::to_string(f.state()) + " " + f.error());
        continue;
      }
      const protocol::ConvRunnerResult& res = f.result();
      check_result(res, c, input, params.t, r.tally);
      r.comm_bytes += he_bytes(res);
      ++r.completed;
      r.cases[0].served_s.push_back(seconds(done - submitted));
      if (replayed.empty()) {
        replayed = one;
        r.cases[0].sample = ServedSample{input, k + 1, res};
      }
    }
    r.add_server_metrics(server->metrics());
  }
  r.window_s = seconds(Clock::now() - start);
  r.window_spans = trace.size() - spans_before;
  r.rss_mb = peak_rss_mb();
  if (replayed.empty()) throw std::runtime_error("no cold start completed");
  if (trace.enabled()) replay(replayed, backend, cfg, seed, &pool, trace, r);
  return r;
}

/// Scan protocol seeds from the case's own until the router's hash sends
/// the plan to `target`: a fixed plan -> shard split on every seed.
wire::PlanSpecWire routed_spec(LayerCase& c, const bfv::BfvParams& params, std::size_t shards,
                               std::size_t target) {
  wire::PlanSpecWire spec;
  spec.params = params;
  spec.backend = bfv::PolyMulBackend::kNtt;
  spec.stride = c.layer.stride;
  spec.pad = c.layer.pad;
  spec.in_h = c.layer.in_h;
  spec.in_w = c.layer.in_w;
  spec.weights = c.weights;
  for (std::uint64_t s = c.protocol_seed;; ++s) {
    spec.protocol_seed = s;
    wire::ByteWriter w;
    wire::encode(spec, w);
    if (wire::fnv1a(w.bytes()) % shards == target) break;
  }
  c.protocol_seed = spec.protocol_seed;
  return spec;
}

RunResult run_sharded(std::uint64_t seed, double window, Trace& trace) {
  const bfv::BfvParams params = paper_params();
  // Plan i lives on shard i, so every shard sees the same offered load
  // whatever the shard count.
  const std::size_t shards = compute_threads();
  const double offered_rps = kShardOfferedRpsPerShard * static_cast<double>(shards);

  std::vector<LayerCase> cases;
  std::vector<wire::PlanSpecWire> specs;
  {
    // The pool is gone before the router forks its workers.
    core::ThreadPool pool(compute_threads());
    for (std::size_t i = 0; i < shards; ++i) {
      cases.push_back(make_case(kShardLayers.at(i), seed, i, kInputsPerLayer, false));
    }
    compute_refs(cases, &pool);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    specs.push_back(routed_spec(cases[i], params, shards, i));
  }

  RunResult r;
  r.cases.resize(cases.size());
  shard::RouterOptions ropts;
  ropts.shards = shards;
  std::unique_ptr<shard::ShardRouter> router;
  std::vector<shard::ShardPlanId> ids(cases.size());
  std::vector<double> register_ms(cases.size());

  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    router.reset();
    Span span(trace, "setup");
    const Clock::time_point t0 = Clock::now();
    router = std::make_unique<shard::ShardRouter>(ropts);
    // Shards warm up in parallel: one registering thread per shard. The
    // router must have placed each plan where routed_spec aimed it, or the
    // workload is no longer one plan per shard.
    on_threads(shards, [&](std::size_t s) {
      Span rs(trace, "serve.register_plan", span.id(), static_cast<int>(s) + 1);
      ids[s] = router->register_plan(specs[s]);
      register_ms[s] = seconds(Clock::now() - rs.start()) * 1e3;
      const std::size_t placed = router->shard_of(ids[s]);
      if (placed != s) {
        throw std::runtime_error(cases[s].layer.name + " was routed to shard " +
                                 std::to_string(placed) + ", not shard " + std::to_string(s));
      }
    });
    r.setup_s.push_back(seconds(Clock::now() - t0));
    r.register_ms.insert(r.register_ms.end(), register_ms.begin(), register_ms.end());
  }
  // One checked probe per plan warms the last round's router up.
  {
    std::vector<shard::ShardFuture> probes;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      shard::ShardSubmitOptions so;
      so.stream = 0;
      probes.push_back(router->submit(ids[i], cases[i].inputs[0], so));
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      probes[i].wait();
      if (probes[i].state() != shard::ShardRequestState::kDone) {
        ++r.tally.attempted;
        r.tally.fail(cases[i].layer.name + " probe: " + probes[i].error());
      } else {
        check_result(probes[i].result(), cases[i], 0, params.t, r.tally);
      }
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    PlanRecord rec;
    const wire::PlanVerdict v = router->plan_verdict(ids[i]);
    rec.verdict = wire::to_string(v);
    rec.proven = v == wire::PlanVerdict::kProven;
    r.note_plan(rec);
    print_plan(cases[i], bfv::PolyMulBackend::kNtt, rec);
  }

  // Open-loop schedule: a Poisson process conditioned on its count (rate x
  // window arrivals at sorted uniform times), plans drawn from a reshuffled
  // round-robin so every plan gets an equal share. The traffic shape comes
  // from kScheduleSeed, not --seed: a short window holds too few busy
  // periods for queueing delay to repeat across arrival draws, so every run
  // offers the same arrival pattern and the seed varies the data (weights,
  // activations, keys, masks) alone.
  struct Arrival {
    double due_s;
    std::size_t plan, input;
  };
  std::vector<Arrival> schedule;
  {
    std::mt19937_64 arng = rng_for(kScheduleSeed, kArrivals, 0);
    std::mt19937_64 prng = rng_for(kScheduleSeed, kPicks, 0);
    std::mt19937_64 irng = rng_for(seed, kPicks, 0);
    std::uniform_real_distribution<double> when(0.0, window);
    const auto count = static_cast<std::size_t>(std::llround(offered_rps * window));
    std::vector<double> due(std::max<std::size_t>(count, 1));
    for (double& d : due) d = when(arng);
    std::sort(due.begin(), due.end());
    std::vector<std::size_t> order(cases.size());
    for (const double d : due) {
      const std::size_t slot = schedule.size() % order.size();
      if (slot == 0) {
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), prng);
      }
      const std::size_t plan = order[slot];
      schedule.push_back({d, plan, static_cast<std::size_t>(irng() % cases[plan].inputs.size())});
    }
  }

  struct InFlight {
    shard::ShardFuture future;
    Clock::time_point due, submitted, done;
    bool finished = false;
  };
  std::vector<InFlight> flights(schedule.size());
  std::atomic<std::size_t> issued{0};
  const std::size_t spans_before = trace.size();
  const Clock::time_point start = Clock::now();
  Clock::time_point window_end;
  std::thread generator([&] {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      InFlight& f = flights[i];
      f.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.due_s));
      std::this_thread::sleep_until(f.due);
      shard::ShardSubmitOptions so;
      so.stream = i + 1;
      f.submitted = Clock::now();
      f.future = router->submit(ids[a.plan], cases[a.plan].inputs[a.input], so);
      issued.store(i + 1, std::memory_order_release);
    }
    // The window is the offered schedule's, whatever the requests' latency.
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(window)));
    window_end = Clock::now();
  });
  // Completion times come from polling: ShardFuture has no callback, and a
  // blocking wait in arrival order would time a fast request behind a slow one.
  std::size_t collected = 0;
  while (collected < schedule.size()) {
    const std::size_t n = issued.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (!flights[i].finished && flights[i].future.done()) {
        flights[i].done = Clock::now();
        flights[i].finished = true;
        ++collected;
      }
    }
    std::this_thread::sleep_for(kCollectorPoll);
  }
  generator.join();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const InFlight& f = flights[i];
    const double latency = seconds(f.done - f.due);
    r.request_s.push_back(latency);
    r.inference_s.push_back(latency);
    r.cases[a.plan].served_s.push_back(seconds(f.done - f.submitted));
    r.generator_lag_max_s = std::max(r.generator_lag_max_s, seconds(f.submitted - f.due));
    const std::uint64_t request = i + 1;
    trace.add("serve.request", f.due, f.done, 0, static_cast<int>(a.plan) + 1, request);
    if (f.future.state() != shard::ShardRequestState::kDone) {
      ++r.tally.attempted;
      r.tally.fail(cases[a.plan].layer.name + ": " + shard::to_string(f.future.state()) + " " +
                   f.future.error());
      continue;
    }
    const protocol::ConvRunnerResult& res = f.future.result();
    check_result(res, cases[a.plan], a.input, params.t, r.tally);
    // Throughput counts what completed inside the window; at this load it
    // only falls short of the offered rate once the shards fall behind.
    if (f.done <= window_end) {
      r.comm_bytes += he_bytes(res);
      ++r.completed;
      ++r.inferences;
    }
    if (!r.cases[a.plan].sample.has_value()) {
      r.cases[a.plan].sample = ServedSample{a.input, i + 1, res};
    }
  }
  r.window_s = seconds(window_end - start);
  r.window_spans = trace.size() - spans_before;

  // Worker-side serving metrics, merged over shards.
  double total = 0, busiest = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string json = router->worker_metrics_json(s);
    const auto num = [&](const char* context, const char* key) {
      const double v = serve::json_number_at(json, context, key);
      return std::isfinite(v) ? v : 0.0;
    };
    const double completed = num("\"counters\"", "completed");
    total += completed;
    busiest = std::max(busiest, completed);
    r.queue_wait_ns += num("\"queue_wait\"", "mean") * num("\"queue_wait\"", "count");
    r.queue_waits += num("\"queue_wait\"", "count");
    r.service_ns += num("\"service\"", "mean") * num("\"service\"", "count");
    r.services += num("\"service\"", "count");
    r.batches += num("\"counters\"", "batches_dispatched");
    r.batched_requests += completed;
  }
  r.max_load_share = total > 0 ? busiest / total : 0;
  r.failed_over = static_cast<double>(router->metrics().failed_over.value());
  router.reset();  // shuts the workers down and reaps them
  r.rss_mb = peak_rss_mb();
  if (trace.enabled()) {
    replay(cases, bfv::PolyMulBackend::kNtt, std::nullopt, seed, nullptr, trace, r);
  }
  return r;
}

// --- Reporting -------------------------------------------------------------

std::vector<Metric> end_to_end_metrics(const RunResult& r) {
  const double completed = static_cast<double>(r.completed);
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"inference_p50_s", median(r.inference_s), "s"},
      {"inferences_per_min", static_cast<double>(r.inferences) * 60.0 / r.window_s, "1/min"},
      {"request_p50_ms", quantile(r.request_s, 0.5) * 1e3, "ms"},
      {"request_p90_ms", quantile(r.request_s, 0.9) * 1e3, "ms"},
      {"achieved_rps", completed / r.window_s, "1/s"},
      {"peak_rss_mb", r.rss_mb, "MB"},
      {"comm_kb_per_request", completed > 0 ? r.comm_bytes / completed / 1024.0 : 0, "KB"},
  };
}

/// Cost of recording one span, for the traced run's overhead estimate.
double span_cost_s() {
  Trace probe(true);
  constexpr int kSpans = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Span s(probe, "probe", 0, 0, static_cast<std::uint64_t>(i));
  return seconds(Clock::now() - t0) / kSpans;
}

std::vector<Metric> per_layer_metrics(const RunResult& r) {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(r.tally.attempted, 1));
  std::vector<Metric> m = {
      {"serve.register_plan_ms", mean(r.register_ms), "ms"},
      {"serve.queue_wait_mean_ms", r.queue_waits > 0 ? r.queue_wait_ns / r.queue_waits / 1e6 : 0,
       "ms"},
      {"serve.service_mean_ms", r.services > 0 ? r.service_ns / r.services / 1e6 : 0, "ms"},
      {"serve.mean_batch", r.batches > 0 ? r.batched_requests / r.batches : 0, "count"},
      {"shard.max_load_share", r.max_load_share, "ratio"},
      {"shard.failed_over", r.failed_over, "count"},
      {"analysis.plans_unproven", static_cast<double>(r.plans_unproven), "count"},
      {"analysis.min_margin_bits", std::isfinite(r.min_margin_bits) ? r.min_margin_bits : 0,
       "bits"},
      {"client.generator_lag_max_ms", r.generator_lag_max_s * 1e3, "ms"},
      {"check.failed_fraction", static_cast<double>(r.tally.failed) / attempted, "ratio"},
      {"check.output_err_rms_lsb", r.tally.rms(), "LSB"},
      {"check.output_err_max_lsb", static_cast<double>(r.tally.max_abs), "LSB"},
      {"trace.request_p50_ms", quantile(r.request_s, 0.5) * 1e3, "ms"},
      {"trace.span_overhead_pct",
       100.0 * static_cast<double>(r.window_spans) * span_cost_s() / r.window_s, "%"},
  };
  m.insert(m.end(), r.replay.begin(), r.replay.end());
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* rest = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &rest, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &rest);
    } else if (key == "--trace") {
      a.trace = std::strtol(value, &rest, 10) != 0;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
    if (rest != nullptr && *rest != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: flash_perfbench --workload <resnet18_warm|resnet18_cold_stage2|"
                 "sharded_ntt_open> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    Trace trace(args.trace);
    RunResult r;
    if (args.workload == "resnet18_warm") {
      r = run_warm(args.seed, args.seconds, trace);
    } else if (args.workload == "resnet18_cold_stage2") {
      r = run_cold(args.seed, args.seconds, trace);
    } else if (args.workload == "sharded_ntt_open") {
      r = run_sharded(args.seed, args.seconds, trace);
    } else {
      std::fprintf(stderr, "flash_perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.trace && !args.trace_out.empty() && !trace.write_json(args.trace_out)) {
      std::fprintf(stderr, "flash_perfbench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }

    const std::vector<Metric> metrics =
        args.trace ? per_layer_metrics(r) : end_to_end_metrics(r);
    std::printf("setup rounds (s):");
    for (const double s : r.setup_s) std::printf(" %.3f", s);
    std::printf("\nchecked %llu request(s): %llu failed, output error rms %.4f max %lld LSB\n",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed), r.tally.rms(),
                static_cast<long long>(r.tally.max_abs));
    bool finite = true;
    std::string body;
    for (const Metric& m : metrics) {
      finite = finite && std::isfinite(m.value);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    body.empty() ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
      body += buf;
    }
    if (!finite) std::fprintf(stderr, "flash_perfbench: a metric was not finite\n");
    const bool correct = finite && r.tally.failed == 0 && r.tally.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed), body.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flash_perfbench: %s\n", e.what());
    return 2;
  }
}
