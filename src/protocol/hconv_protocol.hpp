// One-round hybrid HE/2PC homomorphic convolution (paper Fig. 1 flow).
//
// The client holds {x}^C and the key pair; the server holds {x}^S, the
// weights and a fresh random mask s:
//
//   client:  ct = Enc({x}^C)                                     -> server
//   server:  acc_m = (ct ⊞ {x}^S) ⊠ w_m ⊟ s_m                    -> client
//   client:  {y}^C = extract(Dec(acc_m)),  server: {y}^S = extract(s_m)
//
// with y = {y}^C + {y}^S (mod t) the exact convolution sum-products. Both
// parties run in-process; message sizes are counted, and each pipeline phase
// is wall-clock profiled (this is the Fig. 1 latency-breakdown instrument).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "core/thread_pool.hpp"
#include "encoding/encoder.hpp"
#include "protocol/secret_sharing.hpp"
#include "tensor/conv.hpp"

namespace flash::protocol {

/// Wall-clock seconds per pipeline phase plus message sizes.
struct HConvProfile {
  double share_encode_s = 0;
  double encrypt_s = 0;
  double weight_transform_s = 0;
  double cipher_transform_mul_s = 0;  // ct transforms + pointwise + inverse
  double mask_s = 0;
  double decrypt_s = 0;
  std::uint64_t bytes_client_to_server = 0;
  std::uint64_t bytes_server_to_client = 0;

  double total_s() const {
    return share_encode_s + encrypt_s + weight_transform_s + cipher_transform_mul_s + mask_s +
           decrypt_s;
  }
};

struct HConvResult {
  /// Shares of the M x out_h x out_w sum-product tensor, flattened per
  /// output channel (mod t).
  std::vector<std::vector<u64>> client_share;
  std::vector<std::vector<u64>> server_share;
  std::size_t out_h = 0, out_w = 0;
  HConvProfile profile;
  /// Engine counter delta across this run. Exact when runs are sequential;
  /// when several runs share one protocol concurrently the global engine
  /// totals stay exact (atomics) but per-run attribution overlaps.
  bfv::PolyMulCounters ops;

  /// Reconstruct the cleartext result tensor (centered mod t).
  tensor::Tensor3 reconstruct(u64 t) const;
};

class HConvProtocol {
 public:
  /// Weight spectra precomputed for one (activation geometry, weights) pair.
  /// Transforming the weight polynomials is the dominant server-side cost of
  /// an HConv (paper Fig. 1), yet the spectra are a pure function of the
  /// weights and the encoder geometry — a serving layer that sees many
  /// requests against the same layer computes them once and reuses them.
  /// Instances are immutable after prepare_weights() returns and safe to
  /// share across threads and concurrent run_stream() calls.
  struct PreparedWeights {
    std::size_t in_channels = 0, in_h = 0, in_w = 0;  // activation geometry
    std::size_t out_channels = 0, kh = 0, kw = 0;     // weight geometry
    /// spec[m][tile]: output channel m's weight spectrum against tile.
    std::vector<std::vector<bfv::PlainSpectrum>> spec;

    bool matches(const tensor::Tensor3& x, const tensor::Tensor4& w) const {
      return in_channels == x.channels() && in_h == x.height() && in_w == x.width() &&
             out_channels == w.out_channels() && kh == w.kernel_h() && kw == w.kernel_w();
    }
  };
  /// backend selects the server's PolyMul datapath (NTT = CPU baseline,
  /// kApproxFft = the FLASH datapath). pool (optional, non-owning)
  /// parallelizes the per-tile and per-output-channel loops; null = serial.
  ///
  /// Concurrency model: keys and the evaluator are built once and then only
  /// read (the engine's counters are atomic); every run() draws all of its
  /// randomness from streams derived from (seed, stream id, task index), so
  /// concurrent run() calls are race-free and a fixed seed reproduces the
  /// same shares/masks regardless of thread count or scheduling.
  HConvProtocol(const bfv::BfvContext& ctx, bfv::PolyMulBackend backend,
                std::optional<fft::FxpFftConfig> approx_config, std::uint64_t seed,
                core::ThreadPool* pool = nullptr);

  void set_pool(core::ThreadPool* pool) { pool_ = pool; }
  core::ThreadPool* pool() const { return pool_; }

  /// Run a stride-1 valid convolution over a pre-padded input. The input is
  /// secret-shared internally (the caller plays both parties). Each call
  /// consumes one RNG stream id from an internal counter.
  HConvResult run(const tensor::Tensor3& x, const tensor::Tensor4& weights);

  /// Same, with an explicit RNG stream id. Callers that fan HConvs out over
  /// a pool (ConvRunner) assign ids deterministically per task, making the
  /// parallel result bit-identical to the serial one.
  ///
  /// Every run multiplies against prepared weights. `cached` supplies them
  /// from prepare_weights(); without it the call prepares them itself,
  /// timed as weight_transform_s and counted in the result's ops. Either
  /// way they must match (x, weights) geometry (std::invalid_argument
  /// otherwise). The weight transform is deterministic, so a cached run is
  /// bit-identical to an uncached one — the cache only moves the
  /// weight_transform phase out of the request's critical path (its profile
  /// entry reads 0 and its engine ops are attributed to prepare_weights'
  /// caller).
  HConvResult run_stream(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                         std::uint64_t stream, const PreparedWeights* cached = nullptr);

  /// Precompute the weight spectra for activations of shape
  /// (weights.in_channels(), in_h, in_w): one batched transform per
  /// simd_batch::active_group_lanes() (output channel, channel tile) pairs,
  /// the groups fanned out over the pool when set. On kApproxFft every
  /// batch runs skip mode on one sparsefft::SparseFftPlan built from the
  /// unit's folded weight pattern (encoding::folded_weight_pattern), so only
  /// the live butterflies run; the spectra are bit-identical to the dense
  /// FXP transform's.
  std::shared_ptr<const PreparedWeights> prepare_weights(std::size_t in_h, std::size_t in_w,
                                                         const tensor::Tensor4& weights) const;

  /// Fully-connected layer: y = W x over the same one-round protocol and the
  /// same round body as a conv, using the matrix-vector coefficient encoding
  /// (Table IV's FC head): one activation polynomial, one output per matrix
  /// chunk. Each call consumes one RNG stream id from the internal counter.
  struct MatVecResult {
    std::vector<u64> client_share;  // mod t, length out_features
    std::vector<u64> server_share;
    HConvProfile profile;
    std::vector<i64> reconstruct(u64 t) const {
      return protocol::reconstruct(client_share, server_share, t);
    }
  };
  MatVecResult run_matvec(const std::vector<i64>& x, const std::vector<i64>& w_row_major,
                          std::size_t out_features);

  const bfv::BfvContext& context() const { return ctx_; }

 private:
  /// Coefficients of activation polynomial i, for one party's share.
  using EncodeFn = std::function<std::vector<i64>(std::size_t)>;
  /// Writes weight polynomial i into its n-double row: each coefficient's
  /// signed representative mod t (ConvEncoder::encode_weight_into).
  using WeightRowFn = std::function<void(std::size_t, std::span<double>)>;
  /// Where output m's values sit in its product polynomial.
  using PositionsFn = std::function<std::span<const std::size_t>(std::size_t)>;

  /// Weight spectra of polynomials 0..count-1, transformed in groups of one
  /// SIMD lane width that fan out over the pool. row(i, r) encodes
  /// polynomial i straight into its row of the group's doubles in the
  /// thread's scratch arena. Conv and FC weights both go here; `live`
  /// (kApproxFft skip mode) is the schedule of the polynomials' shared
  /// folded pattern, null for the dense transform.
  std::vector<bfv::PlainSpectrum> transform_weights(
      std::size_t count, const WeightRowFn& row,
      const fft::ButterflySchedule* live = nullptr) const;

  /// The round both conv and FC layers run (Fig. 1 with Fig. 4(b)'s
  /// dataflow): the client encrypts its `polys` activation polynomials, the
  /// server folds in its share, transforms each ciphertext once,
  /// accumulates spec[m][i] over i for each output m, inverse-transforms
  /// and masks it; the client decrypts in SoA groups and both parties
  /// extract their shares at positions(m). Fills result's shares and byte
  /// counts and adds to its phase timers.
  void run_round(std::size_t polys, const EncodeFn& client_poly, const EncodeFn& server_poly,
                 const std::vector<std::vector<bfv::PlainSpectrum>>& spec,
                 const PositionsFn& positions, std::uint64_t run_seed,
                 HConvResult& result) const;

  const bfv::BfvContext& ctx_;
  std::uint64_t seed_;
  hemath::Sampler keygen_sampler_;  // consumed at construction only
  bfv::KeyGenerator keygen_;
  bfv::SecretKey sk_;
  bfv::PreparedPublicKey pk_prepared_;  // the client's public key, NTT domain
  bfv::Decryptor decryptor_;
  bfv::Evaluator evaluator_;
  core::ThreadPool* pool_ = nullptr;        // non-owning
  std::atomic<std::uint64_t> next_stream_;  // default stream ids for run()
};

/// Size in bytes of one ciphertext on the wire (2 ring elements, log2(q)
/// bits per coefficient, byte-aligned).
std::uint64_t ciphertext_bytes(const bfv::BfvParams& params);

}  // namespace flash::protocol
