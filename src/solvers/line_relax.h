#pragma once

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "solvers/relax.h"

/// \file line_relax.h
/// Line relaxation: batched Thomas tridiagonal solves over grid rows or
/// columns in zebra (odd/even line red-black) ordering.
///
/// Point relaxation smooths only the strongly coupled direction of an
/// anisotropic operator: for −(a_x u_xx + a_y u_yy) with a_y ≪ a_x the
/// error stays rough along y and the V-cycle contraction degrades from
/// ~0.1 to ~0.8 per cycle at 32:1 and stalls entirely at 1000:1.  Line
/// relaxation solves each row (or column) *exactly* — a tridiagonal
/// system per line, O(n) by the Thomas algorithm — which smooths all
/// modes that are strongly coupled within the line, restoring textbook
/// multigrid rates for arbitrary axis anisotropy (x-lines for strong
/// x-coupling, y-lines for strong y-coupling, alternating when the
/// strong direction varies across the domain, e.g. the `aniso-rot`
/// operator family).
///
/// Ordering is zebra: all odd lines are solved first (in parallel — they
/// only read the frozen even lines), then all even lines.  Lines of one
/// parity touch disjoint memory, so the sweeps are bitwise deterministic
/// under any thread count and scheduling order, like the red-black point
/// sweeps.  No over-relaxation is applied (ω = 1): each line update is
/// the exact block Gauss-Seidel step, which never increases the energy
/// norm of the error on SPD systems (the property suite pins this).
///
/// Workspaces (the per-line forward-elimination coefficients of the
/// Thomas algorithm) are leased from the caller's grid::ScratchPool —
/// line i of a leased n×n grid serves as line i's private scratch, so
/// concurrent lines never share state and concurrent engines never share
/// allocators.  SolveSession prewarms these leases next to the cycle
/// temporaries.

namespace pbmg::solvers {

/// One zebra line-relaxation sweep of `kind` on A·x = b (kLineX: rows,
/// kLineY: columns, kLineZebraAlt: one x pass then one y pass).  The
/// boundary ring of x is read, not written.  The tridiagonal bands carry
/// the true per-edge coefficients (sub = −aW, sup = −aE for rows;
/// −aN/−aS for columns) and the full diagonal (aW+aE+aN+aS)/h² + c.
/// Every sweep runs the batched-Thomas line solves
/// (grid/packed_kernels.h), vectorized across independent same-parity
/// lines at grid::row_width(kernels) lanes (one under the legacy
/// layout), with the same bits at every width.  The Poisson fast path
/// runs them at the widest width the CPU supports whatever the policy,
/// over constant bands that read no grid, and matches an explicit
/// unit-coefficient operator bit for bit.
/// Forwards a one-element span to line_relax_sweep_multi.  Requires
/// is_line_relax(kind) and op.n() == x.n() == b.n() = 2^k+1.
void line_relax_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      RelaxKind kind, rt::Scheduler& sched,
                      grid::ScratchPool& pool,
                      const grid::KernelPolicy& kernels = {});

/// Zebra line relaxation over K iterates: one sweep of each xs[k] against
/// bs[k], every slot bitwise identical to its own line_relax_sweep call.
/// The whole batch goes to the line passes, which pick a body by K: the
/// one-pass body for one iterate, and for a batch one factorization per
/// line group replayed per iterate, so the pivot divides and coefficient
/// loads are shared (grid/packed_kernels.h).  Under PBMG_ASSERTIONS the
/// bodies throw InvalidArgument on a non-positive diagonal or pivot.
/// Requires is_line_relax(kind) and grid::check_batch's requirements:
/// equal span sizes, no null slot and every grid matching op.n().
void line_relax_sweep_multi(const grid::StencilOp& op,
                            std::span<Grid2D* const> xs,
                            std::span<const Grid2D* const> bs, RelaxKind kind,
                            rt::Scheduler& sched, grid::ScratchPool& pool,
                            const grid::KernelPolicy& kernels = {});

}  // namespace pbmg::solvers
