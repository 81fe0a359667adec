// Quantized network programs — the end-to-end inference substrate. The
// convolution executor is injectable so the same program runs on the
// cleartext reference path, through the hybrid HE/2PC protocol
// (core::FlashAccelerator::hconv_executor), or layer by layer through a
// serving session (serve/network_session.hpp), which is how the examples
// and tests check full-network equivalence.
#pragma once

#include <functional>

#include "tensor/resnet.hpp"

namespace flash::tensor {

/// Activation shape bookkeeping for layer-stack programs.
struct Shape3 {
  std::size_t c = 0, h = 0, w = 0;
  std::size_t volume() const { return c * h * w; }
  bool operator==(const Shape3&) const = default;
};

/// One step of a composable network program. Three kinds:
///   * kConv: conv (any stride/pad, square or rectangular kernel) followed
///     by the layer's post-ops (requant shift + clamp, optional ReLU);
///   * kResidualAdd: add a previously saved activation (see save_output),
///     then clamp/ReLU — the residual join of a quantized block;
///   * kFullyConnected: flatten and apply an integer FC head (must be the
///     last layer; the serve path runs it through encoding::matvec).
/// Any layer may set save_output to push its post-op activation onto the
/// save stack a later kResidualAdd consumes by index.
struct NetLayer {
  enum class Kind { kConv, kResidualAdd, kFullyConnected };
  Kind kind = Kind::kConv;

  // kConv
  Tensor4 weights{1, 1, 1, 1};
  std::size_t stride = 1;
  std::size_t pad = 0;
  int requant_shift = 0;
  /// Post-op bit-width; 0 = pass raw sum-products through (no shift/clamp).
  int clamp_bits = 0;
  bool relu = false;

  // kResidualAdd: index into the save stack (order of save_output layers).
  std::size_t source = 0;

  // kFullyConnected
  std::vector<i64> fc_weights;  // fc_out x flattened-features, row-major
  std::size_t fc_out = 0;

  bool save_output = false;
};

/// conv-layer post-ops: requant shift + clamp (iff clamp_bits > 0), then
/// ReLU. Shared by the cleartext forward, the serial HE reference and the
/// served session path, so the three cannot drift.
void apply_conv_postops(Tensor3& values, const NetLayer& layer);
/// residual-join post-ops: clamp (no shift — the join adds already-
/// requantized activations), then ReLU.
void apply_join_postops(Tensor3& values, const NetLayer& layer);

struct NetworkResult {
  Tensor3 features{1, 1, 1};
  std::vector<i64> logits;
  bool has_logits = false;
};

/// A whole-network program: an ordered list of NetLayers plus the forward
/// semantics. This is what a serving session executes layer by layer — the
/// network executor is wired to a ConvServer by lowering the stack into a
/// serve::NetworkProgram (one registered plan per conv layer).
struct LayerStack {
  std::vector<NetLayer> layers;

  /// Conv executor with explicit geometry: (unpadded input, weights,
  /// stride, pad) -> raw sum-products.
  using ConvExec =
      std::function<Tensor3(const Tensor3&, const Tensor4&, std::size_t, std::size_t)>;

  /// The cleartext conv2d executor.
  static ConvExec reference_executor();

  /// Execute the program. layer_outputs (optional) records every layer's
  /// post-op activation — FC layers record their logits as a 1x1xF tensor —
  /// which is what the batched-vs-serial bit-identity oracle compares.
  NetworkResult forward(const Tensor3& x, const ConvExec& conv,
                        std::vector<Tensor3>* layer_outputs = nullptr) const;

  /// Shape chain: output shape of `layer` for an input of shape `in`
  /// (std::invalid_argument on underflow / mismatch).
  static Shape3 layer_output_shape(Shape3 in, const NetLayer& layer);

  /// stem conv -> depth residual blocks -> flatten -> FC head, all at
  /// `width` channels and spatial x spatial: every conv is 3x3 stride-1
  /// 'same' with requant + clamp to a_bits, the stem's output and every
  /// join but the last are saved as the next block's shortcut. Layers:
  /// 1 + 3 * depth + 1, of which 1 + 2 * depth are convs.
  static LayerStack small_resnet(std::size_t in_c, std::size_t width, std::size_t depth,
                                 std::size_t classes, std::size_t spatial, int w_bits,
                                 int a_bits, std::mt19937_64& rng);

  /// A ResNet-18-shaped stack scaled to software-tractable sizes: stem,
  /// two stages of two residual blocks each, a strided downsample between
  /// the stages (channels double), and an FC head. Preserves the geometry
  /// classes the paper's workload exercises (stride phases, residual joins,
  /// FC) at bench-friendly channel counts.
  static LayerStack resnet18_like(std::size_t in_c, std::size_t width, std::size_t spatial,
                                  std::size_t classes, int w_bits, int a_bits,
                                  std::mt19937_64& rng);
};

}  // namespace flash::tensor
