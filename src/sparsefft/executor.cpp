#include "sparsefft/executor.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "hemath/bitrev.hpp"

namespace flash::sparsefft {

void execute_into(const SparseFftPlan& plan, std::span<const cplx> input, std::span<cplx> out) {
  const std::size_t m = plan.size();
  if (input.size() != m) throw std::invalid_argument("sparsefft::execute: size mismatch");
  if (out.size() != m) throw std::invalid_argument("sparsefft::execute: bad output size");
  const fft::ButterflySchedule& schedule = plan.schedule();
  if (schedule.live_inputs().empty()) {
    std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
    return;
  }
  const std::span<const cplx> w = plan.twiddles();
  // Dead wires are never read before an op writes them, and a nonempty
  // schedule writes every wire by its last stage.
  const int log_m = plan.stages();
  for (std::uint32_t i : schedule.live_inputs()) out[hemath::bit_reverse(i, log_m)] = input[i];
  for (int s = 0; s < log_m; ++s) {
    for (const ButterflyOp& op : schedule.stage(s)) {
      cplx& u = out[op.u];
      cplx& v = out[op.v];
      switch (op.kind) {
        case OpKind::kFull: {
          const cplx t = v * w[op.twiddle_index];
          v = u - t;
          u = u + t;
          break;
        }
        case OpKind::kMulOnly: {
          const cplx t = v * w[op.twiddle_index];
          u = t;
          v = -t;
          break;
        }
        case OpKind::kCopy:
          v = u;
          break;
      }
    }
  }
}

std::vector<cplx> execute(const SparseFftPlan& plan, const std::vector<cplx>& input) {
  std::vector<cplx> out(plan.size());
  execute_into(plan, input, out);
  return out;
}

namespace {

/// A value that may still owe a twiddle multiplication. `quadrant` holds an
/// extra factor i^quadrant applied exactly (swap/negate — free in hardware);
/// `twiddle` holds the deferred non-trivial factor when `lazy` is set.
struct LazyValue {
  cplx base{0.0, 0.0};
  cplx twiddle{1.0, 0.0};
  int quadrant = 0;  // base is additionally multiplied by i^quadrant
  bool lazy = false; // true: a non-trivial twiddle is pending

  static cplx rotate(cplx v, int quadrant) {
    switch (quadrant & 3) {
      case 0: return v;
      case 1: return {-v.imag(), v.real()};
      case 2: return -v;
      default: return {v.imag(), -v.real()};
    }
  }

  cplx materialize(std::uint64_t& mults) const {
    cplx v = rotate(base, quadrant);
    if (lazy) {
      v *= twiddle;
      ++mults;
    }
    return v;
  }
};

}  // namespace

std::vector<cplx> execute_merged(const SparseFftPlan& plan, const std::vector<cplx>& input,
                                 std::uint64_t* mults_issued) {
  const std::size_t m = plan.size();
  if (input.size() != m) throw std::invalid_argument("execute_merged: size mismatch");
  const double base_angle = 2.0 * std::numbers::pi / static_cast<double>(m);

  std::vector<cplx> init = input;
  hemath::bit_reverse_permute(init);
  std::vector<LazyValue> lanes(m);
  for (std::size_t i = 0; i < m; ++i) lanes[i].base = init[i];

  std::uint64_t mults = 0;
  for (int s = 0; s < plan.stages(); ++s) {
    for (const ButterflyOp& op : plan.stage(s)) {
      const bool trivial = is_trivial_twiddle(op.twiddle_index, m);
      switch (op.kind) {
        case OpKind::kFull: {
          // Materialize u; fold this stage's twiddle into v, then materialize.
          const cplx uv = lanes[op.u].materialize(mults);
          LazyValue vv = lanes[op.v];
          if (trivial) {
            // W in {1, i}: exact quadrant rotation, no multiplication.
            if (op.twiddle_index != 0) vv.quadrant += 1;
          } else {
            vv.twiddle *= std::polar(1.0, base_angle * static_cast<double>(op.twiddle_index));
            vv.lazy = true;
          }
          const cplx tv = vv.materialize(mults);
          lanes[op.u] = LazyValue{uv + tv};
          lanes[op.v] = LazyValue{uv - tv};
          break;
        }
        case OpKind::kMulOnly: {
          // Outputs (+Wv, -Wv): defer the twiddle, sign flips are free.
          LazyValue next = lanes[op.v];
          if (trivial) {
            if (op.twiddle_index != 0) next.quadrant += 1;
          } else {
            next.twiddle *= std::polar(1.0, base_angle * static_cast<double>(op.twiddle_index));
            next.lazy = true;
          }
          lanes[op.u] = next;
          next.quadrant += 2;  // additive inverse
          lanes[op.v] = next;
          break;
        }
        case OpKind::kCopy:
          lanes[op.v] = lanes[op.u];
          break;
      }
    }
  }

  // Every lane settles its pending rotation and twiddle.
  std::vector<cplx> out(m);
  for (std::size_t i = 0; i < m; ++i) out[i] = lanes[i].materialize(mults);
  if (mults_issued) *mults_issued = mults;
  return out;
}

}  // namespace flash::sparsefft
