#include "sparsefft/planner.hpp"

#include <stdexcept>

#include "fft/transform_cache.hpp"
#include "hemath/bitrev.hpp"

namespace flash::sparsefft {

bool is_trivial_twiddle(std::size_t twiddle_index, std::size_t m) {
  return twiddle_index == 0 || twiddle_index == m / 4;
}

namespace {

/// Lazy-materialization state for the merged cost accounting.
enum class MergeState : std::uint8_t {
  kZero,    // no data
  kMat,     // holds a concrete value (source or full-butterfly output)
  kLazyId,  // +/-i^j times a concrete value: free to materialize
  kLazy,    // W_cum times a concrete value: one mult to materialize
};

/// Cost (0 or 1 mult) of producing W * value from a state, folding W into the
/// pending twiddle product; `trivial` marks W in {1, i}.
std::uint64_t materialize_with_twiddle(MergeState s, bool trivial) {
  switch (s) {
    case MergeState::kZero:
      return 0;
    case MergeState::kMat:
    case MergeState::kLazyId:
      return trivial ? 0 : 1;
    case MergeState::kLazy:
      return 1;  // source * (W_cum * W): still a single multiplication
  }
  return 0;
}

/// State after multiplying by W without materializing.
MergeState defer_twiddle(MergeState s, bool trivial) {
  if (s == MergeState::kZero) return MergeState::kZero;
  if (trivial) {
    // Powers of i are sign/swap games: kMat stays free to use, lazy states
    // keep their class.
    return s == MergeState::kMat ? MergeState::kLazyId : s;
  }
  return MergeState::kLazy;
}

const std::vector<std::size_t>& checked_nonzeros(std::size_t m, const SparsityPattern& pattern) {
  if (pattern.size() != m) throw std::invalid_argument("SparseFftPlan: pattern size mismatch");
  return pattern.nonzeros();
}

}  // namespace

SparseFftPlan::SparseFftPlan(std::size_t m, const SparsityPattern& pattern)
    : schedule_(m, checked_nonzeros(m, pattern)),
      dense_(m >= 2 ? fft::shared_negacyclic_fft(2 * m) : nullptr) {
  // Price the schedule op by op, tracking each wire's merge state from the
  // bit-reversed input through every stage.
  const int log_m = hemath::log2_exact(m);
  std::vector<MergeState> merge(m, MergeState::kZero);
  for (std::uint32_t i : schedule_.live_inputs()) {
    merge[hemath::bit_reverse(i, log_m)] = MergeState::kMat;
  }
  for (int s = 0; s < schedule_.stages(); ++s) {
    for (const ButterflyOp& op : schedule_.stage(s)) {
      const bool trivial = is_trivial_twiddle(op.twiddle_index, m);
      switch (op.kind) {
        case OpKind::kFull:
          if (trivial) {
            ++cost_.trivial_mults;
          } else {
            ++cost_.complex_mults;
          }
          cost_.complex_adds += 2;
          // Merged accounting: both operands must materialize here.
          cost_.merged_mults += materialize_with_twiddle(merge[op.u], true);
          cost_.merged_mults += materialize_with_twiddle(merge[op.v], trivial);
          cost_.merged_adds += 2;
          merge[op.u] = MergeState::kMat;
          merge[op.v] = MergeState::kMat;
          break;
        case OpKind::kMulOnly: {
          // Merging path: bottom-only input, outputs (+Wv, -Wv).
          if (trivial) {
            ++cost_.trivial_mults;
          } else {
            ++cost_.complex_mults;
          }
          const MergeState next = defer_twiddle(merge[op.v], trivial);
          merge[op.u] = next;
          merge[op.v] = next;  // additive inverse: sign flip is free
          break;
        }
        case OpKind::kCopy:
          // Skipping path: top-only input duplicates downward.
          ++cost_.copies;
          merge[op.v] = merge[op.u];
          break;
      }
    }
  }

  // Transform outputs that are still lazy pay their deferred multiplication.
  for (std::size_t i = 0; i < m; ++i) {
    if (merge[i] == MergeState::kLazy) ++cost_.merged_mults;
  }
}

PlanCost SparseFftPlan::dense_cost(std::size_t m) {
  PlanCost cost;
  const int log_m = hemath::log2_exact(m);
  for (int s = 1; s <= log_m; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const std::size_t stride = m >> s;
    const std::size_t blocks = m / (half << 1);
    for (std::size_t j = 0; j < half; ++j) {
      const bool trivial = is_trivial_twiddle(j * stride, m);
      if (trivial) {
        cost.trivial_mults += blocks;
      } else {
        cost.complex_mults += blocks;
      }
      cost.complex_adds += 2 * blocks;
    }
  }
  // A dense transform has no single-source chains: merged == per-stage.
  cost.merged_mults = cost.complex_mults;
  cost.merged_adds = cost.complex_adds;
  return cost;
}

}  // namespace flash::sparsefft
