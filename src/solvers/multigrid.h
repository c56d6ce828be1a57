#pragma once

#include <functional>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/relax.h"

/// \file multigrid.h
/// Classical multigrid building blocks and the paper's reference
/// algorithms (§2.1 MULTIGRID-V-SIMPLE, §4.2.2 reference iterated-V and
/// reference full-multigrid).
///
/// All routines solve A·x = b in place: `x` enters holding the Dirichlet
/// ring plus the current interior guess and leaves holding the improved
/// solution.  Every cycle runs against a grid::StencilHierarchy: level k
/// smooths, forms residuals and solves directly with ops.at(k), so the
/// coarse-grid correction uses the restricted coefficients rather than
/// rediscretised Poisson.  Bind Poisson as
/// grid::StencilHierarchy(grid::StencilOp::poisson(n)), which stores no
/// grids; every op-aware kernel runs its Poisson fast path on it.  Level
/// temporaries are leased from the caller-supplied grid::ScratchPool
/// (normally the owning pbmg::Engine's pool), so concurrent solves on
/// different engines never share allocator state.

namespace pbmg::solvers {

/// Parameters of a classical V-cycle.  The cycle's shape is the paper's
/// MULTIGRID-V-SIMPLE: one smoothing sweep, the coarse-grid correction,
/// one smoothing sweep, and a direct solve at level 1 (N = 3).  The
/// smoother (RelaxKind, in relax.h) may be point SOR or any line variant
/// on every operator; line relaxation leases its Thomas workspaces from
/// the cycle's ScratchPool.
struct VCycleOptions {
  double omega = kRecurseOmega;  ///< relaxation weight (paper: 1.15)
  /// Smoother (paper: SOR).  kJacobi, the smoother ablation's, runs on the
  /// Poisson operator only (at ω = kJacobiOmega, ignoring `omega`); a cycle
  /// that reaches any other operator with it throws InvalidArgument.
  RelaxKind relaxation = RelaxKind::kSor;
  /// Kernel implementation policy for the smoothing and residual sweeps
  /// (grid/stencil_op.h): the lane count of the rows, one under the
  /// legacy layout and simd_width under the packed one.  Bitwise
  /// result-invariant; affects Poisson cycles not at all (the fast path
  /// keeps its dedicated kernels).
  grid::KernelPolicy kernels;
  /// Optional per-(level, phase) wall-time sink (obs/phase_profile.h);
  /// null — the default — keeps the cycle free of clock reads.
  obs::PhaseProfile* profile = nullptr;
};

/// Stop predicate for the iterate-until-converged reference drivers; called
/// after each iteration with the current iterate and 1-based iteration
/// index.  Return true to stop.
using StopFn = std::function<bool(const Grid2D& x, int iteration)>;

/// Result of an iterate-until-converged run.
struct IterationOutcome {
  int iterations = 0;     ///< iterations actually executed
  bool converged = false; ///< true when the stop predicate fired
};

/// One V-cycle (the body of MULTIGRID-V-SIMPLE) on the hierarchy's
/// operator.  Every entry point requires ops.top_level() >=
/// level_of_size(x.n()) and ops.at(level).n() == x.n().
void vcycle(const grid::StencilHierarchy& ops, Grid2D& x, const Grid2D& b,
            const VCycleOptions& options, rt::Scheduler& sched,
            DirectSolver& direct, grid::ScratchPool& pool);

/// One full-multigrid pass: recursively solves the restricted *problem*
/// to seed the fine-grid initial guess, then runs one V-cycle per level on
/// the way up (the classical FMG ramp of the paper's Figure 3).
void full_multigrid(const grid::StencilHierarchy& ops, Grid2D& x,
                    const Grid2D& b, const VCycleOptions& options,
                    rt::Scheduler& sched, DirectSolver& direct,
                    grid::ScratchPool& pool);

/// The paper's "Multigrid" baseline: MULTIGRID-V-SIMPLE iterated until
/// stop() or max_iterations (reference V-cycle algorithm of §4.2.2).
IterationOutcome solve_reference_v(const grid::StencilHierarchy& ops,
                                   Grid2D& x, const Grid2D& b,
                                   const VCycleOptions& options,
                                   int max_iterations, const StopFn& stop,
                                   rt::Scheduler& sched, DirectSolver& direct,
                                   grid::ScratchPool& pool);

/// Iterated red-black SOR with the given ω until stop() or
/// max_iterations.  The paper's "SOR" baseline (Fig. 6) runs
/// StencilOp::poisson(n) at ω_opt(n).
IterationOutcome solve_iterated_sor(const grid::StencilOp& op, Grid2D& x,
                                    const Grid2D& b, double omega,
                                    int max_iterations, const StopFn& stop,
                                    rt::Scheduler& sched);

/// The paper's reference full-multigrid algorithm (§4.2.2): one standard
/// full-multigrid ramp, then standard V-cycles until stop().
IterationOutcome solve_reference_fmg(const grid::StencilHierarchy& ops,
                                     Grid2D& x, const Grid2D& b,
                                     const VCycleOptions& options,
                                     int max_iterations, const StopFn& stop,
                                     rt::Scheduler& sched,
                                     DirectSolver& direct,
                                     grid::ScratchPool& pool);

}  // namespace pbmg::solvers
