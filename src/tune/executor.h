#pragma once

#include <span>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/relax.h"
#include "trace/cycle_trace.h"
#include "tune/table.h"

/// \file executor.h
/// Interpreters for tuned configurations.
///
/// A TunedConfig is the data equivalent of the specialised program a
/// PetaBricks binary would run after autotuning; TunedExecutor walks the
/// tables and performs the selected algorithms:
///
///   MULTIGRID-V_i  (paper §2.3)        FULL-MULTIGRID_i  (paper §2.4)
///   ─ direct solve                      ─ direct solve
///   ─ SOR(ω_opt) × iterations           ─ ESTIMATE_j, then SOR × iters
///   ─ RECURSE_j × iterations            ─ ESTIMATE_j, then RECURSE_m × iters
///
/// where RECURSE (one pre-SOR(1.15), residual restriction, coarse call to
/// MULTIGRID-V_j, correction, one post-SOR(1.15)) and ESTIMATE (residual
/// restriction, coarse FULL-MULTIGRID_j, correction) recurse through the
/// same tables one level down.  A RECURSE body runs as
/// solvers::recurse_head (pre-relaxation, residual restriction, zeroed
/// coarse correction), the coarse call, and solvers::recurse_tail
/// (interpolated correction, post-relaxation); with point SOR on the
/// Poisson operator or under the packed layout each half is one fused
/// row wavefront, timed once as relaxation.  ESTIMATE's restriction
/// zeroes its coarse correction the same way
/// (grid::restrict_residual_multi), and its interpolation is one region
/// for the batch (grid::interpolate_add_multi), so no walk step
/// zero-fills a grid on the calling thread.
///
/// There is one walk, and it takes K iterates at once: a solo solve is a
/// batch of one (run_v, run_fmg, recurse_body and estimate forward a
/// one-element span), so solo and batched solves run the same kernels
/// and each batch slot is bitwise its solo solve.
///
/// Each public entry point runs its walk as one rt::SolveScope, so once
/// the walk has forked a region (its fine passes, on a grid past the
/// sequential cutoff) the scheduler prices its later passes by their
/// work: the coarse line solves, SOR sweeps and restrictions of a
/// variable-coefficient walk fork where their cells alone would run
/// inline.  The trainer times recurse_body and estimate, so training and
/// serving price passes alike; reference cycles (solvers::vcycle) run
/// outside any scope.  The bits never depend on it.

namespace pbmg::tune {

/// Executes tuned algorithms described by a TunedConfig.
class TunedExecutor {
 public:
  /// Binds the executor to a config, execution resources (normally one
  /// pbmg::Engine's scheduler/direct/scratch trio) and the operator
  /// ladders its walks read.  The config, scheduler, direct solver, pool
  /// and ladders must outlive the executor.  `relax` is captured by value
  /// so concurrent executors on different engines can run different
  /// searched weights.  `ops` is the averaged-coefficient ladder the tuned
  /// algorithms run against; it must cover every level executed (the
  /// Poisson operator's ladder stores no grids).  `ops_rap`, when
  /// non-null, is the Galerkin R·A·P ladder of the same fine operator:
  /// cells whose tuned coarsening is grid::Coarsening::kRap relax and
  /// correct against it.  It is needed only below the top: both ladders
  /// share the fine operator, so a RAP cell at `ops`'s top reads that
  /// operator when no RAP ladder is bound, and one below the top throws
  /// InvalidArgument.  The executor never builds or looks up a ladder:
  /// tune::PreparedOperator builds what a binding's solves can reach
  /// (tune::reach), and the trainer builds what it races.  `tracer` may
  /// be null; when set, every operation is recorded for cycle-shape
  /// rendering.
  TunedExecutor(const TunedConfig& config, rt::Scheduler& sched,
                solvers::DirectSolver& direct, grid::ScratchPool& pool,
                const solvers::RelaxTunables& relax,
                const grid::StencilHierarchy& ops,
                const grid::StencilHierarchy* ops_rap,
                trace::CycleTracer* tracer = nullptr);

  /// Runs MULTIGRID-V at `accuracy_index` on x (ring = Dirichlet data,
  /// interior = current guess).  The level is derived from x.n(), which
  /// must be a trained level of the config.  `profile`, when non-null,
  /// receives per-(level, phase) wall-time attribution at sweep
  /// granularity (obs/phase_profile.h); the default null sink keeps the
  /// solve path free of clock reads.  Returns the number of top-level
  /// iterations the tuned plan actually executed — RECURSE bodies or SOR
  /// sweeps at the entry level, or 1 for a direct solve — so callers
  /// (SolveSession/SolveService) can report real cycle counts instead of
  /// fabricating them.  A batch of one: forwards a one-element span to
  /// run_v_multi, so a solo solve runs exactly the batch walk's kernels.
  int run_v(Grid2D& x, const Grid2D& b, int accuracy_index,
            obs::PhaseProfile* profile = nullptr) const;

  /// Runs MULTIGRID-V on K iterates xs[k] against right-hand-sides bs[k]
  /// simultaneously: one tuned plan walk whose relax and restriction
  /// sweeps take the whole batch (sor_sweep_multi, recurse_head,
  /// recurse_tail, restrict_residual_multi), so each coefficient row is
  /// loaded once per sweep and reused across all K.  This walk is the
  /// only one: every xs[k] finishes bitwise identical to a solo
  /// run_v(xs[k], bs[k], accuracy_index), because a solo solve is this
  /// walk at K = 1 and the fusion reorders memory traffic, never each
  /// iterate's accumulation.
  /// All grids must share one trained level.  Throws InvalidArgument when
  /// an iterate is another slot's iterate or any slot's right-hand side;
  /// right-hand sides may be shared.  Returns the top-level iteration
  /// count (the same for every k, since they execute one plan), or 0 for
  /// an empty batch.
  int run_v_multi(std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, int accuracy_index,
                  obs::PhaseProfile* profile = nullptr) const;

  /// Runs FULL-MULTIGRID at `accuracy_index`; same contract as run_v.
  /// The returned count covers the solve phase at the entry level (the
  /// ESTIMATE ramp's own iterations recurse through their own cells).
  int run_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
              obs::PhaseProfile* profile = nullptr) const;

  /// FULL-MULTIGRID over K iterates: the ESTIMATE ramp and the solve
  /// phase walk the batch exactly as run_v_multi walks V, with the same
  /// per-slot bitwise contract and the same aliasing checks.
  int run_fmg_multi(std::span<Grid2D* const> xs,
                    std::span<const Grid2D* const> bs, int accuracy_index,
                    obs::PhaseProfile* profile = nullptr) const;

  /// One application of the RECURSE_j body at x's level (exposed for the
  /// trainer, which needs to iterate it while measuring accuracy).
  /// `smoother` selects the pre/post relaxation of the body at *this*
  /// level — point red-black SOR at the tuned RECURSE ω (the default,
  /// the paper's shape) or a line variant (solvers/line_relax.h); the
  /// coarse MULTIGRID-V_j call reads its own levels' tuned smoothers
  /// from the tables.  `coarsening` selects the operator ladder the body
  /// relaxes on and corrects against at this level (the coarse call's
  /// cells again read their own tuned coarsening).  At the top both
  /// ladders share the fine operator, so there the choice changes nothing
  /// and needs no RAP ladder; below it the RAP operator replaces the
  /// averaged approximation — which the trainer measures honestly, since
  /// candidates race under the same rule.  A classical coarse call
  /// (kClassicalCoarse) carries `coarsening` down its whole ramp, so it
  /// reads the RAP ladder below the top even from a top-level body.
  /// Runs the batch recursion on a one-element span.
  void recurse_body(
      Grid2D& x, const Grid2D& b, int sub_accuracy_index,
      solvers::RelaxKind smoother = solvers::RelaxKind::kSor,
      grid::Coarsening coarsening = grid::Coarsening::kAverage,
      obs::PhaseProfile* profile = nullptr) const;

  /// One application of ESTIMATE_j at x's level (exposed for the trainer);
  /// runs the batch recursion on a one-element span.
  void estimate(Grid2D& x, const Grid2D& b, int estimate_accuracy_index,
                obs::PhaseProfile* profile = nullptr) const;

 private:
  // The one walk.  Every private step takes the whole batch.  The
  // run_*_at steps return the executed iteration count at *their* level
  // (the public methods surface the top level's).
  int run_v_multi_at(std::span<Grid2D* const> xs,
                     std::span<const Grid2D* const> bs, int level,
                     int accuracy_index, obs::PhaseProfile* profile) const;
  void recurse_body_multi_at(std::span<Grid2D* const> xs,
                             std::span<const Grid2D* const> bs, int level,
                             int sub_accuracy_index,
                             solvers::RelaxKind smoother,
                             grid::Coarsening coarsening,
                             obs::PhaseProfile* profile) const;
  int run_fmg_multi_at(std::span<Grid2D* const> xs,
                       std::span<const Grid2D* const> bs, int level,
                       int accuracy_index, obs::PhaseProfile* profile) const;
  void estimate_multi_at(std::span<Grid2D* const> xs,
                         std::span<const Grid2D* const> bs, int level,
                         int estimate_accuracy_index,
                         obs::PhaseProfile* profile) const;
  /// Direct solve of every slot at `level` on the `coarsening` ladder.
  void direct_multi_at(std::span<Grid2D* const> xs,
                       std::span<const Grid2D* const> bs, int level,
                       grid::Coarsening coarsening,
                       obs::PhaseProfile* profile) const;
  /// `iterations` SOR(ω_opt) sweeps of the batch on the averaged ladder.
  void sor_multi_at(std::span<Grid2D* const> xs,
                    std::span<const Grid2D* const> bs, int level,
                    int iterations, obs::PhaseProfile* profile) const;
  void trace(trace::Op op, int level, int detail = 0) const;

  /// Operator at `level` in the requested ladder.  A RAP cell at the
  /// averaged ladder's top with no RAP ladder bound reads the averaged
  /// side, which is the shared fine operator; one below the top throws
  /// InvalidArgument.
  const grid::StencilOp& op_at(int level, grid::Coarsening coarsening) const;

  const TunedConfig& config_;
  rt::Scheduler& sched_;
  solvers::DirectSolver& direct_;
  grid::ScratchPool& pool_;
  solvers::RelaxTunables relax_;
  const grid::StencilHierarchy& ops_;
  const grid::StencilHierarchy* ops_rap_;
  trace::CycleTracer* tracer_;
};

}  // namespace pbmg::tune
