// ResNet-18 / ResNet-50 linear-layer inventories and a synthetic quantized
// network for accuracy-proxy experiments.
//
// The paper evaluates HConv over the convolutional (linear) layers of
// ImageNet ResNets. We reproduce the exact layer geometry (every conv shape,
// stride, padding) so operation counts, encodings, and sparsity statistics
// match; weights are synthetic (see DESIGN.md substitutions).
#pragma once

#include <random>
#include <string>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/quant.hpp"

namespace flash::tensor {

/// One convolutional layer of the network.
struct LayerConfig {
  std::string name;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Multiply-accumulates of the layer in cleartext.
  std::uint64_t macs() const;
};

/// Every conv layer of ResNet-18 (ImageNet, 224x224 input), in order.
std::vector<LayerConfig> resnet18_conv_layers();

/// Every conv layer of ResNet-50 (ImageNet, 224x224 input), in order.
std::vector<LayerConfig> resnet50_conv_layers();

/// Scale a layer inventory to a CPU-tractable software sweep: spatial
/// extents capped at max_hw and channel counts at max_c, preserving kernel /
/// stride / padding geometry (so the protocol still exercises the same
/// phase decompositions and tilings), and deduplicating layers that collapse
/// to the same scaled shape. This is what the `--threads` layer-sweep
/// benches actually execute through the HE/2PC protocol.
std::vector<LayerConfig> scale_layers_for_sweep(const std::vector<LayerConfig>& layers,
                                                std::size_t max_hw, std::size_t max_c);

/// A quantized residual block (paper Fig. 5(a)): conv -> requant -> relu ->
/// conv -> requant -> add identity -> relu. Weight/activation bit-widths are
/// parameters (W4A4 in the paper's headline experiments).
struct QuantizedBlock {
  Tensor4 conv1;
  Tensor4 conv2;
  int act_bits = 4;
  int weight_bits = 4;
  int requant_shift = 6;  // discards this many sum-product LSBs

  static QuantizedBlock random(std::size_t channels, std::size_t k, int w_bits, int a_bits,
                               std::mt19937_64& rng);

  /// Exact forward pass.
  Tensor3 forward(const Tensor3& input) const;

  /// Forward pass with additive integer error injected into each conv's raw
  /// sum-product output (modelling approximate-FFT HConv error). The errors
  /// vector supplies one perturbation tensor per conv (sized like the conv
  /// output); pass empty tensors for no injection.
  Tensor3 forward_with_error(const Tensor3& input, const Tensor3& err1, const Tensor3& err2) const;
};

/// A tiny synthetic classifier on top of pooled block features, used to
/// measure the network-level robustness proxy: the fraction of inputs whose
/// argmax class flips when errors are injected.
struct SyntheticClassifier {
  std::vector<i64> fc_weights;  // classes x features
  std::size_t classes = 10;

  static SyntheticClassifier random(std::size_t features, std::size_t classes, int bits,
                                    std::mt19937_64& rng);

  std::size_t predict(const std::vector<i64>& features) const;
};

}  // namespace flash::tensor
