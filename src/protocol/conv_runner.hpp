// General convolution over the one-round protocol: padding, stride
// decomposition and spatial tiling on top of the stride-1 HConv core.
//
// * 'same'/custom padding is applied to the cleartext input before sharing
//   (both parties know the geometry; zeros carry no information).
// * A stride-s convolution decomposes into up to s^2 stride-1 sub-
//   convolutions over phase-subsampled inputs (the decomposition the tiling
//   planner models); each phase's result *shares* are summed locally, so the
//   decomposition costs no extra communication rounds.
// * Inputs whose patch exceeds the polynomial capacity are split into
//   overlapping spatial tiles (halo = kernel - 1).
//
// This is what lets the HE/2PC path run every ResNet layer shape, not just
// the ones that fit a single polynomial.
#pragma once

#include <map>

#include "protocol/hconv_protocol.hpp"

namespace flash::protocol {

/// Everything about one (input shape, weights, stride, pad) layer that can
/// be computed before any activation arrives: the stride-phase kernels and,
/// per phase, the weight spectra of every distinct spatial-tile patch shape
/// the tiling grid produces. Built by ConvRunner::prepare(), immutable
/// afterwards, safe to share across threads — this is the "weight plan" a
/// serving layer keys batches on (ARCHITECTURE.md §9).
struct ConvPlan {
  std::size_t in_c = 0, in_h = 0, in_w = 0;  // pre-padding activation shape
  std::size_t stride = 1, pad = 0;
  tensor::Tensor4 weights;  // the original (un-subsampled) kernel

  struct Phase {
    std::size_t a = 0, b = 0;   // stride-phase offsets (0,0 for stride 1)
    std::size_t index = 0;      // stream-block index (matches run's order)
    tensor::Tensor4 weights;    // phase-subsampled kernel
    /// Patch shape (height, width) -> prepared spectra. One entry per
    /// distinct tile shape: interior tiles share one, edge tiles theirs.
    std::map<std::pair<std::size_t, std::size_t>,
             std::shared_ptr<const HConvProtocol::PreparedWeights>>
        tiles;
  };
  std::vector<Phase> phases;
};

struct ConvRunnerResult {
  tensor::Tensor3 client_share;  // mod-t share values stored as i64
  tensor::Tensor3 server_share;
  std::uint64_t bytes_client_to_server = 0;
  std::uint64_t bytes_server_to_client = 0;
  std::size_t hconv_calls = 0;

  /// Reconstruct the cleartext sum-product tensor.
  tensor::Tensor3 reconstruct(u64 t) const;
};

class ConvRunner {
 public:
  /// pool (optional, non-owning) fans the independent HConv units — stride
  /// phases and spatial tiles — out over threads; each unit also hands the
  /// pool down to HConvProtocol for its per-channel loops. Every unit gets a
  /// deterministic RNG stream id derived from its (phase, tile) position, so
  /// the result is bit-identical to the serial path for a fixed protocol
  /// seed, independent of thread count and scheduling.
  explicit ConvRunner(HConvProtocol& protocol, core::ThreadPool* pool = nullptr)
      : protocol_(protocol), pool_(pool) {
    if (pool_ != nullptr) protocol_.set_pool(pool_);
  }

  /// General conv2d over the protocol: any stride >= 1, any padding, spatial
  /// tiling as needed. Prepares a plan for this one call and runs it, so it
  /// is run(x, *prepare(...), stream_base) with the weight transforms on the
  /// request's critical path. `stream_base` offsets every HConv unit's RNG
  /// stream: two runs with distinct bases draw disjoint mask/encryption
  /// streams (bases must be >= 2^32 apart; serve uses request index << 32),
  /// while the same base reproduces the same shares bit-for-bit.
  ConvRunnerResult run(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                       std::size_t stride, std::size_t pad, std::uint64_t stream_base = 0);

  /// Precompute the weight plan for activations of shape (in_c, in_h, in_w):
  /// phase kernels plus per-tile-shape weight spectra, one entry per unit of
  /// enumerate_conv_units. Requests served with the plan skip the dominant
  /// weight-transform phase; the spectra are deterministic, so every plan
  /// of the same layer gives bit-identical results. Throws
  /// std::invalid_argument on stride 0 or in_c != weights.in_channels().
  std::shared_ptr<const ConvPlan> prepare(std::size_t in_c, std::size_t in_h, std::size_t in_w,
                                          const tensor::Tensor4& weights, std::size_t stride,
                                          std::size_t pad) const;

  /// Run against a prepared plan. x must have the plan's shape
  /// (std::invalid_argument otherwise). Within each HConv unit, decryption
  /// runs the batched SoA NTT over groups of output ciphertexts and
  /// encryption's inverse pair is one batched call.
  ConvRunnerResult run(const tensor::Tensor3& x, const ConvPlan& plan,
                       std::uint64_t stream_base = 0);

 private:
  /// Stride-1 valid conv with spatial tiling against one plan phase; HConv
  /// unit i draws RNG stream stream_base + i.
  ConvRunnerResult run_stride1(const tensor::Tensor3& x, const ConvPlan::Phase& phase,
                               std::uint64_t stream_base);

  ConvRunnerResult run_padded(const tensor::Tensor3& padded, const ConvPlan& plan,
                              std::uint64_t stream_base);

  HConvProtocol& protocol_;
  core::ThreadPool* pool_ = nullptr;
};

}  // namespace flash::protocol
