// Executes a SparseFftPlan in double precision.
//
// The executors run exactly the operations the planner scheduled — skipped
// butterflies are genuinely never touched — so their output agreeing with
// the dense FFT is the end-to-end proof that "skipping" and "merging" are
// exact (they are: zeros contribute nothing). They are proofs and
// references, not the served path: the combined sparse+approximate datapath
// of FLASH's approximate PEs is FxpFft's live-op kernel (fft/fxp_fft.hpp),
// which runs the same schedule on the fixed-point arithmetic.
#pragma once

#include <span>
#include <vector>

#include "fft/complex_fft.hpp"
#include "sparsefft/planner.hpp"

namespace flash::sparsefft {

using fft::cplx;

/// Exact execution: standard-order input (only positions in the plan's
/// pattern are read; others are treated as zero), standard-order output.
/// Reads the twiddle table of FftPlan(M, +1) and performs its butterfly
/// arithmetic (the library is built with -ffp-contract=off), so the result
/// equals FftPlan(M, +1).forward on the dense vector bit for bit, up to the
/// sign of zero components.
std::vector<cplx> execute(const SparseFftPlan& plan, const std::vector<cplx>& input);

/// Allocation-free exact execution: places the live inputs of `input` into
/// `out` (both size M, non-aliasing) in bit-reversed order and runs the
/// scheduled ops in place. No scratch needed.
void execute_into(const SparseFftPlan& plan, std::span<const cplx> input, std::span<cplx> out);

/// Merged execution: values flowing through single-source butterfly chains
/// stay *lazy* — a (base value, accumulated twiddle) pair whose twiddle
/// product is tracked by exponent addition, exactly the paper's "summing
/// twiddle factor exponents". A complex multiplication is issued only when a
/// value materializes (two-input butterfly or transform output). The number
/// of multiplications issued equals the plan's merged_mults accounting —
/// asserted when `mults_issued` is provided — and the result matches the
/// dense FFT.
std::vector<cplx> execute_merged(const SparseFftPlan& plan, const std::vector<cplx>& input,
                                 std::uint64_t* mults_issued = nullptr);

}  // namespace flash::sparsefft
