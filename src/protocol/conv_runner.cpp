#include "protocol/conv_runner.hpp"

#include <atomic>
#include <stdexcept>

#include "encoding/encoder.hpp"
#include "protocol/conv_geometry.hpp"

namespace flash::protocol {

namespace {

tensor::Tensor3 pad_input(const tensor::Tensor3& x, std::size_t pad) {
  if (pad == 0) return x;
  tensor::Tensor3 out(x.channels(), x.height() + 2 * pad, x.width() + 2 * pad);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    for (std::size_t y = 0; y < x.height(); ++y) {
      for (std::size_t xx = 0; xx < x.width(); ++xx) out.at(c, y + pad, xx + pad) = x.at(c, y, xx);
    }
  }
  return out;
}

/// Phase-subsample: x_ab[c, u, v] = x[c, s*u + a, s*v + b].
tensor::Tensor3 subsample(const tensor::Tensor3& x, std::size_t s, std::size_t a, std::size_t b) {
  const std::size_t h = (x.height() > a) ? (x.height() - a + s - 1) / s : 0;
  const std::size_t w = (x.width() > b) ? (x.width() - b + s - 1) / s : 0;
  tensor::Tensor3 out(x.channels(), h, w);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    for (std::size_t u = 0; u < h; ++u) {
      for (std::size_t v = 0; v < w; ++v) out.at(c, u, v) = x.at(c, s * u + a, s * v + b);
    }
  }
  return out;
}

/// acc[m] += other[m] cropped to acc's extent, mod t (one output channel).
void add_cropped_channel(tensor::Tensor3& acc, const tensor::Tensor3& other, std::size_t m,
                         u64 t) {
  for (std::size_t y = 0; y < acc.height(); ++y) {
    for (std::size_t x = 0; x < acc.width(); ++x) {
      acc.at(m, y, x) = static_cast<tensor::i64>(hemath::add_mod(
          static_cast<u64>(acc.at(m, y, x)), static_cast<u64>(other.at(m, y, x)), t));
    }
  }
}

// The decomposition lives in protocol/conv_geometry.{hpp,cpp}: prepare()
// builds its plan from enumerate_conv_units, the list the pipeline
// certifier reasons about, and run_stride1() walks the same tile_grid, so a
// plan's (and a certificate's) units cannot drift from the execution's.

}  // namespace

tensor::Tensor3 ConvRunnerResult::reconstruct(u64 t) const {
  tensor::Tensor3 out(client_share.channels(), client_share.height(), client_share.width());
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = hemath::to_signed(
        hemath::add_mod(static_cast<u64>(client_share.data()[i]),
                        static_cast<u64>(server_share.data()[i]), t),
        t);
  }
  return out;
}

ConvRunnerResult ConvRunner::run_stride1(const tensor::Tensor3& x, const ConvPlan::Phase& phase,
                                         std::uint64_t stream_base) {
  const auto& p = protocol_.context().params();
  const tensor::Tensor4& weights = phase.weights;
  const std::size_t kh = weights.kernel_h();
  const std::size_t kw = weights.kernel_w();
  const std::size_t out_h = x.height() - kh + 1;
  const std::size_t out_w = x.width() - kw + 1;

  ConvRunnerResult result;
  result.client_share = tensor::Tensor3(weights.out_channels(), out_h, out_w);
  result.server_share = tensor::Tensor3(weights.out_channels(), out_h, out_w);

  // Every tile writes a disjoint output window and draws a stream id fixed
  // by its grid position, so the parallel result is bit-identical to the
  // serial one.
  const std::vector<TileTask> tasks = tile_grid(p.n, x.height(), x.width(), kh, kw);

  std::atomic<std::uint64_t> bytes_c2s{0}, bytes_s2c{0};
  core::for_range(pool_, tasks.size(), [&](std::size_t i) {
    const TileTask& tk = tasks[i];
    const std::size_t patch_h = tk.th + kh - 1;
    const std::size_t patch_w = tk.tw + kw - 1;
    tensor::Tensor3 patch(x.channels(), patch_h, patch_w);
    for (std::size_t c = 0; c < x.channels(); ++c) {
      for (std::size_t y = 0; y < patch_h; ++y) {
        for (std::size_t xx = 0; xx < patch_w; ++xx) {
          patch.at(c, y, xx) = x.at(c, tk.ty + y, tk.tx + xx);
        }
      }
    }
    const auto it = phase.tiles.find({patch_h, patch_w});
    if (it == phase.tiles.end()) {
      throw std::invalid_argument("ConvRunner: plan is missing a tile patch shape");
    }
    const HConvResult r = protocol_.run_stream(patch, weights, stream_base + i, it->second.get());
    bytes_c2s.fetch_add(r.profile.bytes_client_to_server, std::memory_order_relaxed);
    bytes_s2c.fetch_add(r.profile.bytes_server_to_client, std::memory_order_relaxed);
    for (std::size_t m = 0; m < weights.out_channels(); ++m) {
      std::size_t idx = 0;
      for (std::size_t y = 0; y < tk.th; ++y) {
        for (std::size_t xx = 0; xx < tk.tw; ++xx, ++idx) {
          result.client_share.at(m, tk.ty + y, tk.tx + xx) = static_cast<tensor::i64>(r.client_share[m][idx]);
          result.server_share.at(m, tk.ty + y, tk.tx + xx) = static_cast<tensor::i64>(r.server_share[m][idx]);
        }
      }
    }
  });
  result.hconv_calls = tasks.size();
  result.bytes_client_to_server = bytes_c2s.load();
  result.bytes_server_to_client = bytes_s2c.load();
  return result;
}

ConvRunnerResult ConvRunner::run_padded(const tensor::Tensor3& padded, const ConvPlan& plan,
                                        std::uint64_t stream_base) {
  const std::size_t stride = plan.stride;
  if (stride == 1) return run_stride1(padded, plan.phases.front(), stream_base);

  const auto& p = protocol_.context().params();
  const tensor::Tensor4& weights = plan.weights;
  const std::size_t out_h = (padded.height() - weights.kernel_h()) / stride + 1;
  const std::size_t out_w = (padded.width() - weights.kernel_w()) / stride + 1;

  ConvRunnerResult total;
  total.client_share = tensor::Tensor3(weights.out_channels(), out_h, out_w);
  total.server_share = tensor::Tensor3(weights.out_channels(), out_h, out_w);

  // Each live phase is an independent stride-1 sub-convolution, so they fan
  // out over the pool. Phase p owns the stream block
  // [stream_base + (p << 16), stream_base + ((p+1) << 16)) for its tiles.
  std::vector<ConvRunnerResult> phase_results(plan.phases.size());
  core::for_range(pool_, plan.phases.size(), [&](std::size_t i) {
    const ConvPlan::Phase& ph = plan.phases[i];
    const tensor::Tensor3 xp = subsample(padded, stride, ph.a, ph.b);
    phase_results[i] = run_stride1(xp, ph, stream_base + (ph.index << 16));
  });

  // Crop each phase to the strided output extent and sum its shares (mod t)
  // straight into the zero-initialized output, in fixed phase order,
  // parallel over output channels (each channel is a disjoint slab).
  // Modular addition is exact, so the bits do not depend on the fan-out.
  for (const ConvRunnerResult& phase : phase_results) {
    total.hconv_calls += phase.hconv_calls;
    total.bytes_client_to_server += phase.bytes_client_to_server;
    total.bytes_server_to_client += phase.bytes_server_to_client;
  }
  core::for_range(pool_, weights.out_channels(), [&](std::size_t m) {
    for (const ConvRunnerResult& phase : phase_results) {
      add_cropped_channel(total.client_share, phase.client_share, m, p.t);
      add_cropped_channel(total.server_share, phase.server_share, m, p.t);
    }
  });
  return total;
}

ConvRunnerResult ConvRunner::run(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                                 std::size_t stride, std::size_t pad, std::uint64_t stream_base) {
  return run(x, *prepare(x.channels(), x.height(), x.width(), weights, stride, pad), stream_base);
}

std::shared_ptr<const ConvPlan> ConvRunner::prepare(std::size_t in_c, std::size_t in_h,
                                                    std::size_t in_w,
                                                    const tensor::Tensor4& weights,
                                                    std::size_t stride, std::size_t pad) const {
  const auto& p = protocol_.context().params();
  auto plan = std::make_shared<ConvPlan>();
  plan->in_c = in_c;
  plan->in_h = in_h;
  plan->in_w = in_w;
  plan->stride = stride;
  plan->pad = pad;
  plan->weights = weights;

  // The certifier's unit list, phase-major: one spectrum set per distinct
  // tile patch shape of each phase (interior tiles all share one entry).
  for (const ConvUnit& u : enumerate_conv_units(p.n, in_c, in_h, in_w, weights, stride, pad)) {
    if (plan->phases.empty() || plan->phases.back().index != u.phase.index) {
      ConvPlan::Phase phase;
      phase.a = u.phase.a;
      phase.b = u.phase.b;
      phase.index = u.phase.index;
      phase.weights = u.weights;
      plan->phases.push_back(std::move(phase));
    }
    plan->phases.back().tiles[{u.patch_h, u.patch_w}] =
        protocol_.prepare_weights(u.patch_h, u.patch_w, u.weights);
  }
  return plan;
}

ConvRunnerResult ConvRunner::run(const tensor::Tensor3& x, const ConvPlan& plan,
                                 std::uint64_t stream_base) {
  if (x.channels() != plan.in_c || x.height() != plan.in_h || x.width() != plan.in_w) {
    throw std::invalid_argument("ConvRunner: activation shape does not match the plan");
  }
  return run_padded(pad_input(x, plan.pad), plan, stream_base);
}

}  // namespace flash::protocol
