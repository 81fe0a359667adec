#include "tensor/network.hpp"

#include <cmath>
#include <stdexcept>

namespace flash::tensor {

void apply_conv_postops(Tensor3& values, const NetLayer& layer) {
  if (layer.clamp_bits > 0) requantize(values.data(), layer.requant_shift, layer.clamp_bits);
  if (layer.relu) {
    for (auto& v : values.data()) v = v < 0 ? 0 : v;
  }
}

void apply_join_postops(Tensor3& values, const NetLayer& layer) {
  if (layer.clamp_bits > 0) {
    for (auto& v : values.data()) v = clamp_to_bits(v, layer.clamp_bits);
  }
  if (layer.relu) {
    for (auto& v : values.data()) v = v < 0 ? 0 : v;
  }
}

LayerStack::ConvExec LayerStack::reference_executor() {
  return [](const Tensor3& x, const Tensor4& w, std::size_t stride, std::size_t pad) {
    return conv2d(x, w, ConvSpec{stride, pad});
  };
}

Shape3 LayerStack::layer_output_shape(Shape3 in, const NetLayer& layer) {
  switch (layer.kind) {
    case NetLayer::Kind::kConv: {
      const ConvSpec spec{layer.stride, layer.pad};
      if (layer.weights.in_channels() != in.c) {
        throw std::invalid_argument("LayerStack: conv in_channels != activation channels");
      }
      if (in.h + 2 * layer.pad < layer.weights.kernel_h() ||
          in.w + 2 * layer.pad < layer.weights.kernel_w()) {
        throw std::invalid_argument("LayerStack: kernel larger than padded activation");
      }
      return Shape3{layer.weights.out_channels(), spec.out_dim(in.h, layer.weights.kernel_h()),
                    spec.out_dim(in.w, layer.weights.kernel_w())};
    }
    case NetLayer::Kind::kResidualAdd:
      return in;
    case NetLayer::Kind::kFullyConnected:
      if (layer.fc_out == 0 || layer.fc_weights.size() != layer.fc_out * in.volume()) {
        throw std::invalid_argument("LayerStack: FC weight size != fc_out * flattened features");
      }
      return Shape3{1, 1, layer.fc_out};
  }
  throw std::invalid_argument("LayerStack: unknown layer kind");
}

NetworkResult LayerStack::forward(const Tensor3& x, const ConvExec& conv,
                                  std::vector<Tensor3>* layer_outputs) const {
  NetworkResult result;
  Tensor3 cur = x;
  std::vector<Tensor3> saved;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const NetLayer& layer = layers[i];
    switch (layer.kind) {
      case NetLayer::Kind::kConv: {
        cur = conv(cur, layer.weights, layer.stride, layer.pad);
        apply_conv_postops(cur, layer);
        break;
      }
      case NetLayer::Kind::kResidualAdd: {
        if (layer.source >= saved.size()) {
          throw std::invalid_argument("LayerStack: residual source not saved yet");
        }
        cur = add(cur, saved[layer.source]);
        apply_join_postops(cur, layer);
        break;
      }
      case NetLayer::Kind::kFullyConnected: {
        if (i + 1 != layers.size()) {
          throw std::invalid_argument("LayerStack: FC layer must be last");
        }
        result.logits = linear(cur.data(), layer.fc_weights, layer.fc_out);
        result.has_logits = true;
        if (layer_outputs) {
          Tensor3 logits_t(1, 1, layer.fc_out);
          logits_t.data() = result.logits;
          layer_outputs->push_back(std::move(logits_t));
        }
        result.features = std::move(cur);
        return result;
      }
    }
    if (layer.save_output) saved.push_back(cur);
    if (layer_outputs) layer_outputs->push_back(cur);
  }
  result.features = std::move(cur);
  return result;
}

namespace {

int shift_for(int a_bits, int w_bits, std::size_t taps) {
  int s = sum_product_bits(a_bits, w_bits, taps) - a_bits - 2;
  return s < 0 ? 0 : s;
}

/// A conv + requant + ReLU layer saved (or not) for a later residual join.
NetLayer quant_conv(Tensor4 weights, std::size_t stride, std::size_t pad, int shift, int a_bits,
                    bool relu, bool save) {
  NetLayer l;
  l.weights = std::move(weights);
  l.stride = stride;
  l.pad = pad;
  l.requant_shift = shift;
  l.clamp_bits = a_bits;
  l.relu = relu;
  l.save_output = save;
  return l;
}

/// A residual block at `channels`: 3x3 s1 conv + ReLU, 3x3 s1 conv, then the
/// join with save-stack slot `source`.
void push_block(LayerStack& stack, std::size_t channels, int w_bits, int a_bits,
                std::size_t source, bool save_join, std::mt19937_64& rng) {
  const int shift = shift_for(a_bits, w_bits, channels * 9);
  stack.layers.push_back(quant_conv(random_weights(channels, channels, 3, w_bits, rng), 1, 1,
                                    shift, a_bits, /*relu=*/true, /*save=*/false));
  stack.layers.push_back(quant_conv(random_weights(channels, channels, 3, w_bits, rng), 1, 1,
                                    shift, a_bits, /*relu=*/false, /*save=*/false));
  NetLayer join;
  join.kind = NetLayer::Kind::kResidualAdd;
  join.source = source;
  join.clamp_bits = a_bits;
  join.relu = true;
  join.save_output = save_join;
  stack.layers.push_back(std::move(join));
}

/// Integer FC head over `features` flattened activations.
NetLayer fc_head(std::size_t classes, std::size_t features, int w_bits, std::mt19937_64& rng) {
  NetLayer fc;
  fc.kind = NetLayer::Kind::kFullyConnected;
  fc.fc_out = classes;
  fc.fc_weights.resize(classes * features);
  std::normal_distribution<double> dist(0.0, static_cast<double>(quant_max(w_bits)) / 2.5);
  for (auto& v : fc.fc_weights) {
    v = clamp_to_bits(static_cast<i64>(std::llround(dist(rng))), w_bits);
  }
  return fc;
}

}  // namespace

LayerStack LayerStack::small_resnet(std::size_t in_c, std::size_t width, std::size_t depth,
                                    std::size_t classes, std::size_t spatial, int w_bits,
                                    int a_bits, std::mt19937_64& rng) {
  LayerStack stack;
  stack.layers.push_back(quant_conv(random_weights(width, in_c, 3, w_bits, rng), 1, 1,
                                    shift_for(a_bits, w_bits, in_c * 9), a_bits,
                                    /*relu=*/true, /*save=*/depth > 0));
  // The stem saved slot 0; block i's join saves slot i + 1.
  for (std::size_t i = 0; i < depth; ++i) {
    push_block(stack, width, w_bits, a_bits, /*source=*/i, /*save_join=*/i + 1 < depth, rng);
  }
  stack.layers.push_back(fc_head(classes, width * spatial * spatial, w_bits, rng));
  return stack;
}

LayerStack LayerStack::resnet18_like(std::size_t in_c, std::size_t width, std::size_t spatial,
                                     std::size_t classes, int w_bits, int a_bits,
                                     std::mt19937_64& rng) {
  LayerStack stack;
  std::size_t save_slots = 0;
  const auto block = [&](std::size_t channels, bool save_join) {
    // Joins the most recent saved activation.
    push_block(stack, channels, w_bits, a_bits, save_slots - 1, save_join, rng);
    if (save_join) ++save_slots;
  };

  // Stem: 3x3 s1 'same', in_c -> width; saved as the first block's shortcut.
  stack.layers.push_back(quant_conv(random_weights(width, in_c, 3, w_bits, rng), 1, 1,
                                    shift_for(a_bits, w_bits, in_c * 9), a_bits,
                                    /*relu=*/true, /*save=*/true));
  ++save_slots;
  // Stage 1: two residual blocks at `width`; each join feeds the next block.
  block(width, /*save_join=*/true);
  block(width, /*save_join=*/false);
  // Downsample between stages: 3x3 s2 p1, channels double. No projected
  // shortcut — its output is saved as stage 2's first shortcut instead.
  stack.layers.push_back(quant_conv(random_weights(2 * width, width, 3, w_bits, rng), 2, 1,
                                    shift_for(a_bits, w_bits, width * 9), a_bits,
                                    /*relu=*/true, /*save=*/true));
  ++save_slots;
  // Stage 2: two residual blocks at 2*width.
  block(2 * width, /*save_join=*/true);
  block(2 * width, /*save_join=*/false);

  // FC head over the flattened stage-2 features.
  const std::size_t out_spatial = (spatial + 2 * 1 - 3) / 2 + 1;
  stack.layers.push_back(fc_head(classes, 2 * width * out_spatial * out_spatial, w_bits, rng));
  return stack;
}

}  // namespace flash::tensor
