// Full private inference over a small quantized CNN: every convolution runs
// through the hybrid HE/2PC protocol on the FLASH datapath; ReLU,
// requantization and the classifier head run in the (simulated) 2PC layer.
// The private predictions must match the cleartext network exactly.
//
//   $ ./examples/private_inference_demo [samples]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "core/flash_accelerator.hpp"
#include "tensor/network.hpp"
#include "tensor/quant.hpp"

int main(int argc, char** argv) {
  using namespace flash;
  const int samples = argc > 1 ? std::atoi(argv[1]) : 5;

  const bfv::BfvParams params = bfv::BfvParams::create(1024, 18, 46);
  core::FlashOptions options;
  options.backend = bfv::PolyMulBackend::kApproxFft;
  options.approx_config = core::high_accuracy_approx_config(params.n, params.t);
  core::FlashAccelerator acc(params, options);

  // A 3-block quantized CNN: 3 -> 8 channels at 8x8, W4A4.
  constexpr std::size_t kBlocks = 3;
  std::mt19937_64 rng(2025);
  const tensor::LayerStack net = tensor::LayerStack::small_resnet(3, 8, kBlocks, 10, 8, 4, 4, rng);
  const tensor::LayerStack::ConvExec reference = tensor::LayerStack::reference_executor();
  const tensor::LayerStack::ConvExec private_conv = acc.hconv_executor();
  const auto predict = [&](const tensor::Tensor3& x, const tensor::LayerStack::ConvExec& conv) {
    const std::vector<tensor::i64> logits = net.forward(x, conv).logits;
    return static_cast<std::size_t>(std::max_element(logits.begin(), logits.end()) -
                                    logits.begin());
  };

  std::printf("private CNN inference: stem + %zu residual blocks, %zu convolutions per sample\n",
              kBlocks, 1 + 2 * kBlocks);

  int agreements = 0;
  double total_s = 0.0;
  for (int s = 0; s < samples; ++s) {
    const tensor::Tensor3 x = tensor::random_activations(3, 8, 8, 4, rng);
    const std::size_t expected = predict(x, reference);
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t got = predict(x, private_conv);
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    total_s += secs;
    agreements += got == expected;
    std::printf("  sample %d: cleartext class %zu, private class %zu (%.2f s) %s\n", s, expected,
                got, secs, got == expected ? "" : "  <-- MISMATCH");
  }
  std::printf("\n%d/%d private predictions match cleartext inference (avg %.2f s/sample on CPU;\n",
              agreements, samples, total_s / samples);
  std::printf("the FLASH accelerator model puts the same workload at microseconds).\n");
  return agreements == samples ? 0 : 1;
}
