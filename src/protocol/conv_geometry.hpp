// The stride/tiling decomposition of a conv plan, shared by execution and
// static analysis.
//
// ConvRunner lowers one strided, padded convolution into a fan-out of
// stride-1 HConv units: each live stride phase is an independent stride-1
// sub-convolution (shares sum locally mod t, which is exact), and each
// phase's output is covered by a grid of square tiles whose input patch
// fits one polynomial. ConvRunner::prepare builds its plan from
// enumerate_conv_units, the pipeline certifier (protocol/plan_certificate)
// reasons about the same list, and run_stride1() walks the same tile_grid,
// so the units a certificate covers cannot drift from the units the runner
// actually executes.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace flash::protocol {

/// One spatial tile of a stride-1 conv: output window origin + extent.
struct TileTask {
  std::size_t ty, tx, th, tw;
};

/// The spatial tile grid of one stride-1 conv: the largest square output
/// tile whose input patch fits a polynomial, then the row-major task list.
/// Throws std::invalid_argument when even a 1x1 output tile cannot fit.
std::vector<TileTask> tile_grid(std::size_t poly_n, std::size_t in_h, std::size_t in_w,
                                std::size_t kh, std::size_t kw);

/// One live stride phase (offset (a, b) into the kernel), in the fixed
/// order run() dispatches them (phase p owns the stream block
/// [p << 16, (p+1) << 16)).
struct PhaseDef {
  std::size_t a, b, index;
};

/// The live stride phases of a kernel: offsets whose subsampled kernel is
/// non-empty.
std::vector<PhaseDef> live_phases(std::size_t kernel_h, std::size_t kernel_w, std::size_t stride);

/// Subsampled extent along one axis: ceil((full - offset) / s) for
/// full > offset, else 0.
std::size_t phase_extent(std::size_t full, std::size_t s, std::size_t offset);

/// Kernel phase: w_ab[m, c, i, j] = w[m, c, s*i + a, s*j + b].
tensor::Tensor4 kernel_phase(const tensor::Tensor4& w, std::size_t s, std::size_t a,
                             std::size_t b);

/// One HConv unit of a lowered conv plan: a stride phase together with one
/// *distinct* input patch shape of its tile grid (interior tiles all share
/// one shape and therefore one entry; `tile_count` says how many tiles of
/// the grid use it). The unit is exactly what HConvProtocol::run_stream
/// executes and what one PreparedWeights entry of a ConvPlan covers.
struct ConvUnit {
  PhaseDef phase;
  tensor::Tensor4 weights{1, 1, 1, 1};  // phase-subsampled kernel
  std::size_t patch_h = 0, patch_w = 0;
  std::size_t tile_count = 0;
};

/// Enumerate the units of a conv (in_c x in_h x in_w input, `weights`
/// kernel, given stride/pad), in phase-major order. ConvRunner::prepare
/// builds one PreparedWeights entry per unit. Throws std::invalid_argument
/// on stride 0 or in_c != weights.in_channels().
std::vector<ConvUnit> enumerate_conv_units(std::size_t poly_n, std::size_t in_c,
                                           std::size_t in_h, std::size_t in_w,
                                           const tensor::Tensor4& weights, std::size_t stride,
                                           std::size_t pad);

}  // namespace flash::protocol
