// Sparse butterfly dataflow planner (paper Section IV-B).
//
// Given the nonzero pattern of a weight polynomial, the plan is the
// fft::ButterflySchedule of that pattern — one walk of the DIT butterfly
// network that keeps only the operations whose inputs carry data — priced in
// the paper's terms. Zero-operand analysis subsumes both of the paper's
// optimizations:
//
//   * (u active, v zero)  -> outputs (u, u): a pure duplication. Runs of
//     these realize "skipping" — an N/2^x-point sub-network computed once
//     and copied (paper Fig. 8(a), Example 4.1).
//   * (u zero, v active)  -> outputs (W v, -W v): a multiply-only op. Chains
//     of these collapse multi-stage paths into cumulative-twiddle
//     multiplications — "merging" (paper Fig. 8(b), Example 4.2).
//   * both zero           -> no operation at all.
//
// Twiddles W = +1 (j = 0) and W = +/-i cost no real multiplications and are
// tracked separately, matching the paper's multiplication counts.
//
// One plan is built per layer-wide sparsity pattern and reused for every
// transform in that layer, so planning cost is amortized to noise (paper:
// "a single dataflow can be utilized across transforms in the same
// convolutional layer"). The served kApproxFft weight transform runs the
// plan's schedule in skip mode: HConvProtocol::prepare_weights builds one
// plan per HConv unit from its folded weight pattern and FxpFft executes
// only the scheduled ops, bit-identical to the dense fixed-point transform
// (fft/fxp_fft.hpp). Merging — quantizing a cumulative twiddle once —
// changes the fixed-point numerics and stays an accounting (execute_merged
// proves it exact in double precision).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fft/butterfly_schedule.hpp"
#include "fft/negacyclic.hpp"
#include "sparsefft/pattern.hpp"

namespace flash::sparsefft {

using fft::ButterflyOp;
using fft::OpKind;

/// Arithmetic cost of a plan in real (scalar) operations.
///
/// Two accountings are kept:
///  * per-stage — every scheduled kFull/kMulOnly op pays its multiplication
///    (what a naive zero-skipping executor would do);
///  * merged    — the paper's "merging": a value that traverses a chain of
///    single-source butterflies (kMulOnly/kCopy) stays *lazy*, accumulating
///    twiddle-factor exponents for free; a multiplication is paid only when
///    the value must materialize — at a two-input butterfly or at the
///    transform output. This is what collapses (N/2)log2(N) butterflies to
///    ~N multiplications for an isolated element (Example 4.2) and drives
///    the paper's >86% reduction at ResNet sparsity.
struct PlanCost {
  std::uint64_t complex_mults = 0;       // per-stage, non-trivial twiddles
  std::uint64_t trivial_mults = 0;       // W in {1, i}: free in hardware
  std::uint64_t complex_adds = 0;
  std::uint64_t copies = 0;
  std::uint64_t merged_mults = 0;        // merged accounting, non-trivial
  std::uint64_t merged_adds = 0;
  /// 4 real mults per complex mult (the BU datapath in the paper's Fig. 9
  /// instantiates four shift-add arrays).
  std::uint64_t real_mults() const { return 4 * complex_mults; }
  std::uint64_t real_adds() const { return 2 * complex_adds + 2 * complex_mults; }
};

/// A complete sparse execution schedule for an M-point FFT.
class SparseFftPlan {
 public:
  /// pattern: nonzeros of the *standard-order* input of the M-point FFT
  /// (i.e. the folded/twisted z sequence for a negacyclic transform).
  SparseFftPlan(std::size_t m, const SparsityPattern& pattern);

  std::size_t size() const { return schedule_.size(); }
  int stages() const { return schedule_.stages(); }
  std::span<const ButterflyOp> stage(int s) const { return schedule_.stage(s); }
  /// The op lists themselves, in the form FxpFft runs them.
  const fft::ButterflySchedule& schedule() const { return schedule_; }
  const PlanCost& cost() const { return cost_; }
  /// W_M^j, j in [0, M/2): the twiddle table of FftPlan(M, +1) itself
  /// (shared process-wide), which the exact executor reads.
  std::span<const fft::cplx> twiddles() const {
    return dense_ ? dense_->plan().root_powers() : std::span<const fft::cplx>{};
  }

  /// Dense-FFT cost with the same trivial-twiddle accounting, for ratios.
  static PlanCost dense_cost(std::size_t m);

 private:
  fft::ButterflySchedule schedule_;
  std::shared_ptr<const fft::NegacyclicFft> dense_;  // its plan is FftPlan(M, +1)
  PlanCost cost_;
};

/// True if W_M^t for twiddle table index t (t = j * M / 2^s) is one of
/// {1, -i} — the multiplication-free twiddles of the sign=+1 kernel table
/// (index 0 is 1; index M/4 is i for sign=+1).
bool is_trivial_twiddle(std::size_t twiddle_index, std::size_t m);

}  // namespace flash::sparsefft
