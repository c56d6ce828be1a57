#pragma once

#include <span>

#include "grid/grid2d.h"
#include "grid/packed_rows.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file packed_kernels.h
/// The drivers of the pk:: rows (packed_rows.h) over a StencilOp: the
/// residual, coloured SOR and the zebra batched-Thomas line solves,
/// vectorized with the simd.h wrapper.  They are the only implementation
/// of each variable-coefficient pass: under either StencilLayout the
/// entry points in grid_ops.h / solvers::relax.h / solvers::line_relax.h
/// run them at row_width(kernels) lanes (one under kLegacy, the clamped
/// simd_width under kPacked).  Every point pass (apply, the residual,
/// the SOR wavefronts, the fused residual restriction, the RECURSE halves
/// and the transfers) takes its rows from one grid::OperatorRows
/// (wavefront.h), the only place they are picked and priced, and every
/// batched entry, the line pass here included, checks its spans through
/// grid::check_batch (grid_ops.h).  Weighted Jacobi has no form here (its
/// one body is the Poisson sweep in solvers/relax.h).  Callers rarely use
/// these directly.  All of them:
///  - require a non-Poisson operator, except the line pass, which also
///    runs every Poisson line sweep: the fast path stores no
///    coefficients, and its constant-coefficient residual and SOR rows
///    and line bands (packed_rows.h) run at packed_simd_width_supported()
///    whatever the policy says;
///  - read the operator's own coefficient grids, through pk::view5 /
///    pk::view9 below, and nothing else: a 5-point row sums its diagonal
///    from the couplings it loads;
///  - give the same bits for every width and thread count (see
///    packed_kernels_body.h for the contract);
///  - clamp simd_width to what the running CPU supports, which is
///    result-invariant for the same reason.
///
/// Vectorization shapes: residual/apply vectorize unit-stride along the
/// row; coloured SOR loads four consecutive columns and stores a blend
/// that keeps the other colour's lanes (packed_rows.h: the caller must
/// own the other colour's readers for the pass); the line solves
/// vectorize across independent same-parity lines (lane l = line
/// i0 + 2l), which turns the serial Thomas recurrences into W independent
/// chains.
///
/// The sweeps a tuned walk runs take K iterates: every SOR sweep is the
/// two-stage row wavefront of grid/wavefront.h (solvers::sor_sweep_multi;
/// packed_sor_sweep is one iterate of it at a given width), the same
/// driver as the Poisson sweep's, and solvers::recurse_head/recurse_tail
/// run a point-SOR body's halves as three-stage wavefronts of the same
/// rows.  The line pass has no single-grid entry:
/// one zebra driver runs pk::line_group (packed_rows.h), whose one-pass,
/// factor and apply Thomas bodies take any of six bands (x/y lines ×
/// Poisson, 5- and 9-point), and which picks one-pass or factor-once by K.
///
/// Every pass is priced for rt::Scheduler::grain_for by its work (the
/// weights in grid_ops.h times K).  A line pass that forks slices its line groups
/// by the thread count rather than by the profile's grain_rows: a task
/// takes max(1, groups / (8 · threads)) groups, one group per task up to
/// n = 129 and two at n = 513 on four threads.  Four threads inside a
/// forked solve, 9-point RAP jump operator, median of 60 interleaved
/// calls, µs (inline on one thread, then eight groups per task as
/// grain_rows gave, then groups / (4 · threads), groups / (8 · threads)
/// and one group per task):
///
/// | pass          | inline  | 8 groups | /(4·T) | /(8·T) | 1 group |
/// |---------------|---------|----------|--------|--------|---------|
/// | x, 129, K = 1 |   186.5 |     94.5 |   52.0 |   51.9 |    51.8 |
/// | x, 257, K = 4 |  2592.7 |    788.1 |  694.1 |  654.9 |   693.7 |
/// | x, 513, K = 1 |  1490.3 |    541.5 |  502.5 |  472.2 |   468.5 |
/// | y, 513, K = 4 | 12612.5 |   4322.0 | 3887.2 | 3789.9 |  3721.7 |
///
/// At n = 65 every sliced variant read 22–24 µs (x, K = 1) against 40.7
/// for eight-group tasks; the 5-point averaged operator ranks the same.

namespace pbmg::grid {

namespace pk {

/// The coefficients of interior row i (1 <= i <= n−2) of a 5-point
/// operator (view5) or a 9-point one (view9), as the packed rows read
/// them: pointers into op's grids at NinePointRows' offsets.  Built per
/// row and pass, so no view outlives the operator that a pass is
/// handed.
View5 view5(const StencilOp& op, int i);
View9 view9(const StencilOp& op, int i);

}  // namespace pk

/// Widest SIMD lane count worth requesting on this machine: 4 when the
/// CPU runs AVX2 (or is aarch64, where the 4-lane kernels compile to NEON
/// pairs), 2 for baseline x86-64 SSE2, 1 elsewhere.  The Poisson residual
/// and SOR rows, restriction and interpolation always run at this width.
int packed_simd_width_supported();

/// Halves `width` (a valid KernelPolicy width in {1, 2, 4}) until the
/// running CPU supports it.  Clamping never changes results — every width
/// is bitwise identical — so tuned tables stay portable across machines.
int clamp_simd_width(int width);

/// The lane count a policy runs the variable-coefficient rows at: 1 under
/// StencilLayout::kLegacy, which ignores simd_width, and
/// clamp_simd_width(simd_width) under kPacked.  The only reader of the
/// layout on the solve path.
int row_width(const KernelPolicy& kernels);

/// Picks the W-lane instantiation of a row kernel (packed_rows.h) for
/// lane width w in {1, 2, 4}.
template <typename Fn>
Fn by_width(int w, Fn w1, Fn w2, Fn w4) {
  return w == 4 ? w4 : w == 2 ? w2 : w1;
}

/// r = b − A·x under the packed layout: residual_op at simd_width.
void packed_residual(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                     Grid2D& r, rt::Scheduler& sched, int simd_width);

/// One coloured SOR sweep under the packed layout (red-black for 5-point
/// operators, four-colour for 9-point): solvers::sor_sweep's operator
/// overload at simd_width, the same two-stage row wavefront
/// (grid::sor_wavefront).  A 5-point sweep runs red at row t and black at
/// row t − 1; a 9-point sweep runs the even rows' two colours at row t and
/// the odd rows' two at row t − 1, which gives the colour passes' bits
/// under any thread count.
void packed_sor_sweep(const StencilOp& op, Grid2D& x, const Grid2D& b,
                      double omega, rt::Scheduler& sched, int simd_width);

/// One zebra line pass over K iterates: x-lines (rows), or y-lines
/// (columns) when `columns` is set.  Odd lines then even lines, each
/// group of `simd_width` (clamped) same-parity lines solved as one
/// batched Thomas elimination; solvers::line_relax_sweep runs every pass
/// here.  Poisson runs here too, at packed_simd_width_supported()
/// whatever simd_width says, over bands of constant couplings that read
/// no grid (bitwise the 5-point passes on an operator whose coefficient
/// grids hold 1).  The pass picks its body by
/// K: one iterate runs the one-pass body, which eliminates and
/// substitutes in one walk of the bands; a batch factors each line group
/// once (pivot reciprocals and super-diagonal, every divide included) and
/// replays the rhs recurrence per iterate against the stored factors, so
/// K right-hand sides share each coefficient load and each pivot divide.
/// The replay multiplies by the exact inv values the one-pass elimination
/// computes, so both bodies give the same bits.  A Poisson pass is priced
/// at 1 per cell, other operators at kLineCost (grid_ops.h); both count
/// K in the cells.
void packed_line_multi(const StencilOp& op, std::span<Grid2D* const> xs,
                       std::span<const Grid2D* const> bs, bool columns,
                       rt::Scheduler& sched, ScratchPool& pool,
                       int simd_width);

}  // namespace pbmg::grid
