// Differential oracles: run the same negacyclic polymul / HConv workload
// through every back-end the codebase offers and cross-check the results.
//
// Exactness hierarchy (who must match whom, and how):
//   * schoolbook mod-q multiplication      — the ground truth (small n);
//   * NttTables (the kNtt engine path)     — bit-equal to schoolbook, and
//     its batched SoA entry points bit-equal to its single transforms;
//   * double-FFT engine (kFft)             — bit-equal while the workload
//     stays inside the rounding-noise margin (the generators enforce it);
//   * sparse planner/executor              — bit-equal: skipping/merging are
//     exact, zeros contribute nothing;
//   * skip-mode FXP transform (the served   — bit-equal to the dense FXP
//     kApproxFft weight path)                 transform: spectra, saturation
//                                             counts and stage peaks;
//   * approximate FXP FFT (kApproxFft)     — error-within-budget: the
//     weight-spectrum error must stay inside the dse/error_model prediction
//     times a documented slack, and the *output* deviation must be exactly
//     the inverse transform of that spectrum deviation (error propagation
//     is linear), so an out-of-model bug cannot hide inside "approximate".
#pragma once

#include <string>

#include "dse/error_model.hpp"
#include "testing/generators.hpp"

namespace flash::testing {

/// Deliberate defect injected into the datapath under test, used to prove
/// the oracle (and the fuzz driver's shrinking) actually detects bugs.
/// kTwiddleQuantization degrades the CSD twiddle quantization of the
/// approximate path to one digit of depth 2 — the "wrong twiddle table"
/// class of hardware bug. kPow2MaskWidth runs the Z_{2^k} engine with a
/// ring one bit narrower than the reference (the off-by-one mask-constant
/// bug); kPow2CarryTruncation drops the ciphertext operand's bits above 32
/// before the Z_{2^k} multiply (the narrow-operand-register / lost-carry
/// bug), with the ring width pinned above 32 so the fault cannot be a
/// silent no-op. kMulOnlyOddSymmetric makes skip mode's multiply-only
/// butterflies write -round(Wv) to the mirror output instead of round(-Wv)
/// (fft::testing_hooks::set_fxp_odd_symmetric_mul_only) — the "negation is
/// free" shortcut that round-to-nearest does not allow.
enum class FaultInjection {
  kNone,
  kTwiddleQuantization,
  kPow2MaskWidth,
  kPow2CarryTruncation,
  kMulOnlyOddSymmetric,
};

struct OracleOptions {
  /// Budget-mode approximate design point: uniform per-stage data width and
  /// CSD twiddle depth (converted per case through DesignSpace::to_config).
  int approx_width = 26;
  int approx_twiddle_k = 8;
  /// Multiplicative slack on the analytical error-model prediction. The
  /// model is documented (test_dse) to track the bit-accurate simulator
  /// within a couple of orders of magnitude; 300x is that envelope, and the
  /// injected twiddle fault overshoots it by many more orders.
  double budget_slack = 300.0;
  FaultInjection fault = FaultInjection::kNone;
};

struct OracleReport {
  bool ok = true;
  std::string check;   // name of the first failed cross-check
  std::string detail;  // human-readable mismatch description

  std::string summary() const { return ok ? "ok" : check + ": " + detail; }
};

/// Cross-checks one polymul case across schoolbook / NTT / Shoup NTT /
/// Z_{2^k} mask-reduce / double FFT / sparse executor / approximate FXP FFT
/// / skip-mode FXP FFT.
class PolymulOracle {
 public:
  explicit PolymulOracle(OracleOptions options = {}) : options_(options) {}
  OracleReport run(const PolymulCase& c) const;

 private:
  OracleOptions options_;
};

/// Runs one conv workload end-to-end through the one-round HE/2PC protocol
/// (padding, stride decomposition, channel tiling, share reconstruction) on
/// every PolyMul backend and checks each against cleartext conv2d — plus
/// cross-backend bit-equality of both parties' shares.
class HConvOracle {
 public:
  explicit HConvOracle(OracleOptions options = {}) : options_(options) {}
  OracleReport run(const ConvCase& c) const;

  /// Batched-equivalence check: plays a mixed-plan request trace through a
  /// ConvServer (every plan registered once, all requests submitted up
  /// front, plan-batched dispatch) and requires each request's shares to be
  /// *bit-identical* to a standalone serial ConvRunner call with the same
  /// seed and stream — batching, queueing and plan interleaving must not be
  /// able to change a single output bit — plus correct against cleartext
  /// conv2d, plus metrics conservation (every submitted request terminal,
  /// queue drained to zero).
  ///
  /// dispatchers = 0 runs the server in deterministic manual-dispatch mode
  /// on the calling thread; >= 1 exercises the real dispatcher threads (the
  /// soak tier runs this under TSan).
  ///
  /// shards = 0 (default) serves in-process as described above. shards >= 1
  /// routes the identical trace through a ShardRouter instead — N forked
  /// worker processes behind the wire protocol — and holds the same
  /// bit-identity bar: shard count, request coalescing on the worker socket
  /// and process boundaries must not change a single output bit relative to
  /// the bare serial ConvRunner (dispatchers is ignored; workers are
  /// single-threaded manual-dispatch servers). kill_shard_every > 0
  /// additionally SIGKILLs a rotating worker every that-many submissions
  /// mid-trace, so the recovery path (respawn + registration replay +
  /// idempotent resend) must ALSO be invisible at the bit level, and router
  /// metrics must conserve through the kills.
  OracleReport run_trace(const ServeTrace& trace, std::size_t dispatchers = 1,
                         std::size_t max_batch = 4, std::size_t shards = 0,
                         std::size_t kill_shard_every = 0) const;

  /// Whole-network session equivalence: runs every session of a network
  /// trace through NetworkServer (shared program, cross-session layer
  /// pipelining) and requires every recorded layer output — and the final
  /// features/logits — to be *bit-identical* to a serial bare-runner
  /// execution (run_network_serial) with the same stream base, plus equal to
  /// the cleartext LayerStack::forward, plus metrics conservation at both
  /// levels (ConvServer requests and NetworkServer sessions).
  OracleReport run_network_trace(const NetworkTrace& trace, std::size_t dispatchers = 0,
                                 std::size_t max_batch = 4) const;

 private:
  OracleOptions options_;
};

}  // namespace flash::testing
