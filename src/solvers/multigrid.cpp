#include "solvers/multigrid.h"

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/scratch.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"

namespace pbmg::solvers {

namespace {

/// One smoothing sweep of `options.relaxation` on level `level`.
void smooth(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
            const VCycleOptions& options, int level, rt::Scheduler& sched,
            grid::ScratchPool& pool) {
  obs::PhaseProfile* profile = options.profile;
  switch (options.relaxation) {
    case RelaxKind::kSor: {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
      sor_sweep(op, x, b, options.omega, sched, options.kernels);
      break;
    }
    case RelaxKind::kJacobi: {
      // Jacobi has only the Poisson body: it serves the smoother ablation.
      PBMG_CHECK(op.is_poisson(),
                 "vcycle: Jacobi relaxation runs on the Poisson operator only");
      auto scratch_lease = pool.acquire(x.n());
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
      jacobi_sweep(x, b, kJacobiOmega, scratch_lease.get(), sched);
      break;
    }
    case RelaxKind::kLineX:
    case RelaxKind::kLineY:
    case RelaxKind::kLineZebraAlt: {
      // Line relaxation takes no ω: each line update is the exact block
      // Gauss-Seidel step (see line_relax.h).
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kLineSolve, level);
      line_relax_sweep(op, x, b, options.relaxation, sched, pool,
                       options.kernels);
      break;
    }
  }
}

void vcycle_impl(const grid::StencilHierarchy& ops, Grid2D& x,
                 const Grid2D& b, int level, const VCycleOptions& options,
                 rt::Scheduler& sched, DirectSolver& direct,
                 grid::ScratchPool& pool) {
  const grid::StencilOp& op = ops.at(level);
  obs::PhaseProfile* profile = options.profile;
  if (level <= 1) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
    direct.solve(op, b, x);
    return;
  }
  smooth(op, x, b, options, level, sched, pool);
  const int nc = coarse_size(x.n());
  auto rc_lease = pool.acquire(nc);
  Grid2D& rc = rc_lease.get();  // restriction writes interior + zeros ring
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::restrict_residual(op, x, b, rc, sched, options.kernels);
  }
  // Error equation on the coarse grid: zero initial guess, zero Dirichlet
  // ring (the error of a Dirichlet problem vanishes on the boundary).
  auto e_lease = pool.acquire(nc);
  Grid2D& e = e_lease.get();
  e.fill(0.0);
  vcycle_impl(ops, e, rc, level - 1, options, sched, direct, pool);
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add(e, x, sched);
  }
  smooth(op, x, b, options, level, sched, pool);
}

void fmg_impl(const grid::StencilHierarchy& ops, Grid2D& x, const Grid2D& b,
              int level, const VCycleOptions& options, rt::Scheduler& sched,
              DirectSolver& direct, grid::ScratchPool& pool) {
  obs::PhaseProfile* profile = options.profile;
  if (level <= 1) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
    direct.solve(ops.at(level), b, x);
    return;
  }
  // Coarsen the *problem*: boundary ring travels by injection, the RHS by
  // full weighting.  The coarse operator comes from the hierarchy (the
  // coefficients were restricted once, up front).
  const int nc = coarse_size(x.n());
  auto xc_lease = pool.acquire(nc);
  Grid2D& xc = xc_lease.get();  // injection writes every cell
  auto bc_lease = pool.acquire(nc);
  Grid2D& bc = bc_lease.get();
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::restrict_inject(x, xc, sched);
    grid::restrict_full_weighting(b, bc, sched);
  }
  fmg_impl(ops, xc, bc, level - 1, options, sched, direct, pool);
  // Lift the coarse solution as the fine initial guess, then polish with
  // one V-cycle (classical FMG ramp).
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_assign(xc, x, sched);
  }
  vcycle_impl(ops, x, b, level, options, sched, direct, pool);
}

void check_hierarchy(const grid::StencilHierarchy& ops, const Grid2D& x,
                     const char* what) {
  const int level = level_of_size(x.n());
  PBMG_CHECK(ops.top_level() >= level,
             std::string(what) + ": hierarchy top level " +
                 std::to_string(ops.top_level()) + " cannot serve level " +
                 std::to_string(level));
  PBMG_CHECK(ops.at(level).n() == x.n(),
             std::string(what) + ": hierarchy/grid size mismatch");
}

/// The iterate-until-stop loop of the reference solvers: runs `step` for
/// the iterations after `done` up to max_iterations, stopping once stop()
/// fires (or at once when `done` already converged).
template <class Step>
IterationOutcome iterate(IterationOutcome done, int max_iterations,
                         const StopFn& stop, const Grid2D& x,
                         const Step& step) {
  for (int it = done.iterations + 1;
       it <= max_iterations && !done.converged; ++it) {
    step();
    done.iterations = it;
    done.converged = stop && stop(x, it);
  }
  return done;
}

}  // namespace

void vcycle(const grid::StencilHierarchy& ops, Grid2D& x, const Grid2D& b,
            const VCycleOptions& options, rt::Scheduler& sched,
            DirectSolver& direct, grid::ScratchPool& pool) {
  PBMG_CHECK(x.n() == b.n(), "vcycle: grid size mismatch");
  check_hierarchy(ops, x, "vcycle");
  vcycle_impl(ops, x, b, level_of_size(x.n()), options, sched, direct, pool);
}

void full_multigrid(const grid::StencilHierarchy& ops, Grid2D& x,
                    const Grid2D& b, const VCycleOptions& options,
                    rt::Scheduler& sched, DirectSolver& direct,
                    grid::ScratchPool& pool) {
  PBMG_CHECK(x.n() == b.n(), "full_multigrid: grid size mismatch");
  check_hierarchy(ops, x, "full_multigrid");
  fmg_impl(ops, x, b, level_of_size(x.n()), options, sched, direct, pool);
}

IterationOutcome solve_reference_v(const grid::StencilHierarchy& ops,
                                   Grid2D& x, const Grid2D& b,
                                   const VCycleOptions& options,
                                   int max_iterations, const StopFn& stop,
                                   rt::Scheduler& sched, DirectSolver& direct,
                                   grid::ScratchPool& pool) {
  return iterate({}, max_iterations, stop, x,
                 [&] { vcycle(ops, x, b, options, sched, direct, pool); });
}

IterationOutcome solve_iterated_sor(const grid::StencilOp& op, Grid2D& x,
                                    const Grid2D& b, double omega,
                                    int max_iterations, const StopFn& stop,
                                    rt::Scheduler& sched) {
  return iterate({}, max_iterations, stop, x,
                 [&] { sor_sweep(op, x, b, omega, sched); });
}

IterationOutcome solve_reference_fmg(const grid::StencilHierarchy& ops,
                                     Grid2D& x, const Grid2D& b,
                                     const VCycleOptions& options,
                                     int max_iterations, const StopFn& stop,
                                     rt::Scheduler& sched,
                                     DirectSolver& direct,
                                     grid::ScratchPool& pool) {
  full_multigrid(ops, x, b, options, sched, direct, pool);
  const IterationOutcome ramp{1, stop && stop(x, 1)};
  return iterate(ramp, max_iterations, stop, x,
                 [&] { vcycle(ops, x, b, options, sched, direct, pool); });
}

}  // namespace pbmg::solvers
