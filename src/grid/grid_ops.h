#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file grid_ops.h
/// Numerical kernels on grids: the 5-point Laplacian, residuals, norms, and
/// the inter-grid transfer operators used by every multigrid variant.
///
/// Conventions:
///  - the discrete operator on an n×n grid is
///      (A x)(i,j) = (4·x(i,j) − x(i±1,j) − x(i,j±1)) / h²,  h = 1/(n−1);
///  - interior cells are (1..n−2)²; the boundary ring carries Dirichlet data;
///  - restriction is full weighting, interpolation is bilinear.
///
/// Every kernel takes the scheduler explicitly so callers control which
/// machine profile executes (the tuner measures under the active profile).

namespace pbmg::grid {

/// Work per cell of each variable-coefficient pass, in Poisson SOR cell
/// updates: a kernel passes its kind's weight times its batch size K to
/// rt::Scheduler::grain_for as `cost_per_cell`, at any row width.  Poisson
/// passes cost 1 whatever K is.  One thread, interleaved, median of 300
/// calls over four runs, as multiples of a Poisson SOR cell (1.70 ns at
/// n = 129, 1.85 ns at n = 257) on a 4-core x86-64 VM with AVX2, packed
/// rows over the operator's grids (jump's averaged 5-point and RAP
/// 9-point levels), n = 129 / 257:
///  - SOR: 5-point 2.3 / 2.1, RAP 9-point 3.6 / 3.8;
///  - residual + restriction, per fine cell: 5-point 1.3 / 1.3, 9-point
///    2.0 / 1.9 (Poisson 0.8);
///  - x-line: 5-point 4.5 / 4.9, 9-point 6.7 / 7.5; y-line: 5-point
///    4.7 / 6.8, 9-point 7.0 / 10.0.
/// The weights stay: where they fork a K = 1 pass (x-line
/// from n = 65, SOR and restriction from 129), BM_CutoffXLine and
/// BM_CutoffSor still read forked below their one-thread times (x-line
/// 31 / 29 µs against 48 / 40 at 65, SOR 49 / 46 against 104 / 72 at
/// 129), and the 9-point SOR at 65 reads either way by host load, as
/// below, so no lower weight was shown to pay.
/// The legacy layout runs the same rows at one lane, which costs more
/// per cell, so the shared weights fork its passes no earlier than their
/// work warrants.  A wavefront pass (the sweep and the fused body halves,
/// grid/wavefront.h) counts every interior cell once at the SOR weight,
/// so a 9-point wavefront sweep
/// forks from n = 65 at K = 1: on the jump RAP level, four threads
/// inside a forked solve, it read 11.4 µs against 9.8 inline, while a
/// whole point-SOR classical V-cycle at n = 513 (jump and θ=45°, either
/// ladder) read the same with wavefront weights 2, 3, 4 and 6.  With
/// these weights and the default
/// cutoff, K = 1 passes fork from n = 65 for the line passes and from
/// n = 129 for SOR and restriction, and K = 4 passes from n = 65 (lines
/// from n = 33); four threads inside a forked solve against one thread
/// measured (µs, K = 1) 9-point x-line 48.0 → 26.0 at n = 65, 9-point
/// SOR 99.6 → 54.9 and restriction 38.6 → 19.0 at n = 129, and at
/// K = 4, n = 65, 9-point SOR 108.4 → 72.7.  Forking a K = 1 SOR at
/// n = 65 gained 9–16% (5-point 17.5 → 14.7 µs, 9-point 29.5 → 26.8),
/// and a 9-point SOR at n = 33 lost (6.9 → 16.8 µs).  A 9-point weight
/// of 3 would run the K = 1 wavefront passes at n = 65 inline.  On the
/// wavefront rows (jump RAP level, four threads in a forked solve) the
/// sweep alone read either way by host load, 23.3 µs forked against
/// 27.4 on a one-thread engine in one probe and 39.1 against 27.1 at
/// weight 3 in BM_CutoffSor/65, while the fused head read 29.3 forked
/// against 44.6 inline and the tail 22.2 against 30.2 (medians of 30
/// interleaved runs), so the weight stays 6.
inline constexpr std::int64_t kSorCost5 = 4;
inline constexpr std::int64_t kSorCost9 = 6;
/// Residual, apply, and the fused residual restriction (per fine cell).
inline constexpr std::int64_t kResidualCost5 = 2;
inline constexpr std::int64_t kResidualCost9 = 3;
/// Either line pass, 5- or 9-point (per cell of the lines it solves).
inline constexpr std::int64_t kLineCost = 10;
/// interpolate_add, on any operator (per fine cell).  In cache an
/// interpolated cell costs about a third of a Poisson SOR cell, but a
/// walk interpolates a correction that forked passes just left in other
/// cores' caches, so the weight is set by what forking then buys.  Four
/// threads inside a forked solve, right after forked x-line passes on the
/// jump RAP level and the one below, median of 600 interleaved calls, µs
/// inline → forked: n = 33 0.48 → 2.39 (K = 1), 4.61 → 3.74 (K = 4);
/// n = 65 3.01 → 3.58, 13.3 → 6.4; n = 129 9.7 → 6.0, 29.5 → 12.9;
/// n = 257 29.8 → 12.3.  Weights 2 to 4 all keep n = 65 at K = 1 and
/// n = 33 inline and fork n = 129 and n = 65 at K = 4.
inline constexpr std::int64_t kInterpolateCost = 2;

/// The span checks every batched pass over K iterates of side n runs
/// first: sor_sweep_multi, recurse_head and recurse_tail
/// (solvers/relax.h), line_relax_sweep_multi (solvers/line_relax.h),
/// packed_line_multi, restrict_residual_multi and interpolate_add_multi.
/// Throws InvalidArgument, naming `what`, unless every span in `fine`
/// and `coarse` holds as many slots as the first, no slot is null, n is
/// 2^k + 1, every grid in `fine` has side n and every grid in `coarse`
/// side coarse_size(n).  `fine` must name at least one span.
void check_batch(
    const char* what, int n,
    std::initializer_list<std::span<const Grid2D* const>> fine,
    std::initializer_list<std::span<const Grid2D* const>> coarse = {});

/// out(i,j) = (A x)(i,j) on the interior; out's boundary ring is zeroed.
/// apply_op on StencilOp::poisson(x.n()).  Requires x and out to be the
/// same valid size.
void apply_poisson(const Grid2D& x, Grid2D& out, rt::Scheduler& sched);

/// r = b − A x on the interior; r's boundary ring is zeroed.
/// Requires all three grids to share the same valid size.
void residual(const Grid2D& x, const Grid2D& b, Grid2D& r,
              rt::Scheduler& sched);

/// out(i,j) = (A x)(i,j) for a variable-coefficient operator (see
/// stencil_op.h); out's boundary ring is zeroed.  Runs the operator's
/// residual rows without a rhs (grid::OperatorRows, wavefront.h, the one
/// row set every point pass runs): the Poisson fast path's
/// constant-coefficient SIMD row, or the pk:: 5- and 9-point rows
/// (packed_rows.h) over the operator's grids at row_width(kernels) lanes
/// (one under the legacy layout) — bitwise identical results at every
/// width, different instructions.  Requires x.n() == op.n().
void apply_op(const StencilOp& op, const Grid2D& x, Grid2D& out,
              rt::Scheduler& sched, const KernelPolicy& kernels = {});

/// r = b − A x for a variable-coefficient operator; r's boundary ring is
/// zeroed.  The same OperatorRows as apply_op, with the rhs: the Poisson
/// fast path runs the constant-coefficient SIMD row at the widest width
/// the CPU supports (identical to residual()), other operators the 5- or
/// 9-point rows at row_width(kernels) lanes.
void residual_op(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                 Grid2D& r, rt::Scheduler& sched,
                 const KernelPolicy& kernels = {});

/// Full-weighting restriction of the fine interior onto the coarse grid:
/// coarse(I,J) = 1/16 · [1 2 1; 2 4 2; 1 2 1] stencil at fine (2I, 2J).
/// The coarse boundary ring is zeroed (restriction is applied to residuals,
/// whose error equation has homogeneous Dirichlet boundaries).
/// Requires coarse.n() == coarse_size(fine.n()).
void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched);

/// Fused residual restriction: coarse = full weighting of (b − A x),
/// bitwise identical to residual_op(op, x, b, r, sched, kernels) followed
/// by restrict_full_weighting(r, coarse, sched), but the fine residual is
/// never stored: each parallel leaf computes the residual rows its coarse
/// rows weigh into a three-row ring and restricts them from there.
/// Forwards a one-element span to restrict_residual_multi, which is the
/// only body.  Requires b.n() == x.n() == op.n() and
/// coarse.n() == coarse_size(x.n()).
void restrict_residual(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                       Grid2D& coarse, rt::Scheduler& sched,
                       const KernelPolicy& kernels = {});

/// Batched fused residual restriction: coarse[k] = full weighting of
/// (bs[k] − A·xs[k]) for K iterates of one operator.  The leaves split
/// the coarse rows, priced at the residual weight times K, and each
/// steps one grid::ResidualRing (wavefront.h) down the fine rows its
/// coarse rows weigh: the three-row ring the fused RECURSE head
/// (solvers::recurse_head) also steps, over the same OperatorRows as
/// residual_op.  Every slot's residual row i runs back to back, so row
/// i's coefficient rows are loaded once for the batch and no fine
/// residual is ever stored.  Each slot's arithmetic is exactly
/// restrict_residual's, so every slot is bitwise identical to K separate
/// calls under any thread count.  `zeroed`, when not empty, holds one
/// grid of the coarse side per slot, which comes back zero everywhere,
/// ring included: the zero guess of the coarse correction a multigrid
/// body solves for next.  The ring zeroes each row it restricts, so the
/// zeroing runs in the same parallel region.  check_batch's
/// requirements, with `zeroed` empty or one coarse grid per slot.
void restrict_residual_multi(const StencilOp& op,
                             std::span<const Grid2D* const> xs,
                             std::span<const Grid2D* const> bs,
                             std::span<Grid2D* const> coarse,
                             rt::Scheduler& sched,
                             const KernelPolicy& kernels = {},
                             std::span<Grid2D* const> zeroed = {});

/// Injection restriction: coarse(I,J) = fine(2I,2J) over the whole grid,
/// boundary included.  Used by full multigrid to coarsen the *problem*
/// (boundary conditions travel by injection).
void restrict_inject(const Grid2D& fine, Grid2D& coarse,
                     rt::Scheduler& sched);

/// Adds the bilinear interpolation of `coarse` to the fine interior:
/// fine += P·coarse.  Used for coarse-grid corrections.  The fine boundary
/// ring is untouched.  Forwards a one-element span to
/// interpolate_add_multi, which is the only body.  Requires
/// coarse.n() == coarse_size(fine.n()).
void interpolate_add(const Grid2D& coarse, Grid2D& fine,
                     rt::Scheduler& sched);

/// Batched interpolate_add: fine[k] += P·coarse[k] for K corrections, in
/// one parallel region over the fine rows priced at kInterpolateCost
/// times K per fine cell.  Each slot's arithmetic is interpolate_add's,
/// so every slot is bitwise its own call under any thread count.
/// check_batch's requirements, the first fine grid's side standing in
/// for the operator's.
void interpolate_add_multi(std::span<const Grid2D* const> coarse,
                           std::span<Grid2D* const> fine,
                           rt::Scheduler& sched);

/// Overwrites the fine interior with the bilinear interpolation of
/// `coarse`: fine = P·coarse.  Used by full multigrid to lift a coarse
/// solution into an initial guess.  The fine boundary ring is untouched.
void interpolate_assign(const Grid2D& coarse, Grid2D& fine,
                        rt::Scheduler& sched);

/// Discrete L2 norm over the interior: sqrt(Σ g(i,j)²).
double norm2_interior(const Grid2D& g, rt::Scheduler& sched);

/// Discrete L2 norm of (a − b) over the interior.
/// Requires matching sizes.
double norm2_diff_interior(const Grid2D& a, const Grid2D& b,
                           rt::Scheduler& sched);

/// Largest absolute interior value; NaN when any interior cell is NaN, so
/// a NaN residual never reads as a small one.
double max_abs_interior(const Grid2D& g, rt::Scheduler& sched);

}  // namespace pbmg::grid
