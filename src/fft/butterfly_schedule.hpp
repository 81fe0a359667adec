// The live butterflies of one M-point DIT FFT (paper §IV-B, Fig. 8).
//
// Given the standard-order input positions that may hold data, one walk of
// the butterfly network (bit-reversed input, log2(M) Cooley-Tukey stages)
// emits per stage only the butterflies whose inputs can be nonzero:
//
//   * both inputs live  -> kFull: multiply + add/sub;
//   * only v live       -> kMulOnly: outputs (W v, -W v) — "merging";
//   * only u live       -> kCopy: outputs (u, u) — "skipping";
//   * neither           -> nothing is scheduled.
//
// A dead wire is an exact zero in every datapath (the double FFT, the
// fixed-point FFT's shift-add multiply and round-to-nearest requantizer all
// map 0 to 0), so running only these ops computes the dense transform.
// sparsefft::SparseFftPlan prices a schedule (the paper's skipping/merging
// accounting); FxpFft runs it on the served weight path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace flash::fft {

enum class OpKind : std::uint8_t {
  kFull,     // both inputs active: multiply + add/sub
  kMulOnly,  // only bottom input active: multiply, negate for the mirror
  kCopy,     // only top input active: duplicate, no arithmetic
};

/// One scheduled butterfly. Indices address the in-place work array (which is
/// in bit-reversed order at stage 1 input).
struct ButterflyOp {
  std::uint32_t u = 0;              // top element index
  std::uint32_t v = 0;              // bottom element index (u + half)
  std::uint32_t twiddle_index = 0;  // j * (M >> stage): index into W_M^j table
  OpKind kind = OpKind::kFull;
};

class ButterflySchedule {
 public:
  /// live_inputs: standard-order positions in [0, m) that may be nonzero
  /// (any order; duplicates are ignored). Every position: the dense schedule.
  ButterflySchedule(std::size_t m, std::span<const std::size_t> live_inputs);

  /// The dense schedule: every input live, every butterfly kFull.
  static ButterflySchedule full(std::size_t m);

  std::size_t size() const { return m_; }
  int stages() const { return static_cast<int>(stage_begin_.size()) - 1; }
  /// Ops of stage s + 1 (0-based), block-major, offset-minor.
  std::span<const ButterflyOp> stage(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return std::span<const ButterflyOp>(ops_).subspan(stage_begin_[i],
                                                      stage_begin_[i + 1] - stage_begin_[i]);
  }
  /// Standard-order live inputs, ascending.
  const std::vector<std::uint32_t>& live_inputs() const { return live_; }
  bool is_live_input(std::size_t i) const { return live_mask_[i] != 0; }
  std::size_t op_count() const { return ops_.size(); }

 private:
  std::size_t m_;
  std::vector<std::uint32_t> live_;
  std::vector<std::uint8_t> live_mask_;    // m entries
  std::vector<ButterflyOp> ops_;           // every stage, concatenated
  std::vector<std::size_t> stage_begin_;   // log2(m) + 1 offsets into ops_
};

}  // namespace flash::fft
