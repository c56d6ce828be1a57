#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/engine.h"
#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "solvers/multigrid.h"
#include "tune/prepared_operator.h"
#include "tune/table.h"

/// \file solve_session.h
/// A prepared solve context: Engine + TunedConfig + operator + grid size.
///
/// Sessions amortize per-request setup for a service that answers many
/// solves of one size: a tune::PreparedOperator over the one config
/// coarsens the operator's coefficient ladders, binds the tuned executor
/// to them and stocks the engine's scratch pool once, so the first request
/// pays no allocation bursts and no solve builds a ladder.  Sessions serve
/// tuned solves only; the reference solvers are solvers::vcycle and
/// friends, which run on operators() directly.  All solve entry points
/// are const and thread-safe (the underlying scheduler and scratch pool
/// are concurrent); many client threads may solve through one session as
/// long as each brings its own x/b grids.
///
/// Sessions constructed without an operator bind the constant-coefficient
/// Poisson operator — StencilOp's fast path — and execute bit-for-bit the
/// same arithmetic as before operators existed.

namespace pbmg {

/// Per-request outcome of a session solve.
struct SolveStats {
  double seconds = 0.0;     ///< wall-clock time of the solve
  int n = 0;                ///< grid side solved
  int level = 0;            ///< recursion level (n = 2^level + 1)
  int accuracy_index = -1;  ///< tuned-ladder index the solve ran
  /// Iterations actually executed: the tuned plan's top-level iteration
  /// count (RECURSE bodies or SOR sweeps; 1 for a direct solve), or the
  /// tuned variants a routed solve invoked (SolveService::solve_op).
  int iterations = 0;
  /// True unless a requested residual check failed — a tuned plan runs a
  /// fixed iteration budget, so without the check this only asserts the
  /// plan completed, not that it met its trained accuracy.  Routed solves
  /// always audit (SolveService::solve_op).
  bool converged = true;
  double initial_residual = 0.0;  ///< ||b − A·x₀|| (residual_checked only)
  double final_residual = 0.0;    ///< ||b − A·x₁|| (residual_checked only)
  bool residual_checked = false;  ///< a ResidualPolicy check actually ran
  /// Config generation that served the solve (SolveService fills this;
  /// bare sessions leave 0).  Lets clients attribute samples across a
  /// background-retune swap.
  std::int64_t generation = 0;
  /// The per-(level, phase) breakdown the caller requested, or null when
  /// the solve ran unprofiled (the default).  Shared so callers can keep
  /// aggregating into the same profile across many solves.
  std::shared_ptr<const obs::PhaseProfile> phases;
};

/// Optional convergence audit for tuned solves.  When enabled, the session
/// measures ||b − A·x|| before and after the solve (outside the timed
/// window — SolveStats::seconds stays comparable with unchecked solves)
/// and reports converged = final ≤ ratio_limit · initial.  The default
/// ratio_limit of 1.0 only demands the solve did not diverge, which is
/// the cheap honesty the drift watcher needs: latency samples from solves
/// that blew up must not be mistaken for healthy load.
struct ResidualPolicy {
  bool enabled = false;
  double ratio_limit = 1.0;
};

/// Binds an Engine and a tuned configuration to one grid size.
class SolveSession {
 public:
  /// Binds `engine` + a copy of `config` to side-n Poisson solves.  Throws
  /// InvalidArgument when n is not 2^k+1 or exceeds the config's trained
  /// levels.  Preallocates the level hierarchy's scratch grids.
  SolveSession(Engine& engine, tune::TunedConfig config, int n);

  /// Binds a variable-coefficient operator (grid size comes from the
  /// operator).  Prewarms the operator's coarse coefficient hierarchy in
  /// addition to the scratch grids.  The config should have been trained
  /// for the operator's family (tune::TrainerOptions::op_family) — a
  /// mismatched config still converges, just with mistuned iteration
  /// counts (that delta is what bench/fig18_operator_families measures).
  SolveSession(Engine& engine, tune::TunedConfig config, grid::StencilOp op);

  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  int n() const { return prepared_.n(); }
  int level() const { return prepared_.level(); }
  Engine& engine() const { return engine_; }
  const tune::TunedConfig& config() const { return prepared_.config(0); }

  /// The bound fine-grid operator (Poisson fast path for the int ctor).
  const grid::StencilOp& op() const { return prepared_.op(); }

  /// The prewarmed per-level operator ladder.
  const grid::StencilHierarchy& operators() const {
    return prepared_.operators();
  }

  /// Ladder index of `target_accuracy`, which must be one of the tuned
  /// accuracies exactly (TunedConfig::accuracy_index); any other value
  /// throws InvalidArgument.
  int accuracy_index(double target_accuracy) const {
    return config().accuracy_index(target_accuracy);
  }

  /// Resident bytes this session pins for its lifetime
  /// (tune::PreparedOperator::footprint_bytes): the coefficient ladders
  /// plus the scratch grids its solves cycle through.
  std::size_t footprint_bytes() const { return prepared_.footprint_bytes(); }

  /// Tuned MULTIGRID-V_i at `accuracy_index` (x: Dirichlet ring + guess).
  /// `profile`, when non-null, receives the solve's per-(level, phase)
  /// wall-time breakdown and is returned in SolveStats::phases; a shared
  /// profile may aggregate across many solves (and threads).  `check`
  /// optionally audits convergence via pre/post residual norms (see
  /// ResidualPolicy); both norms run outside the timed window.  A batch
  /// of one: runs solve_batch_v's path on a one-element span.  Throws
  /// InvalidArgument when x is b.
  SolveStats solve_v(Grid2D& x, const Grid2D& b, int accuracy_index,
                     std::shared_ptr<obs::PhaseProfile> profile = nullptr,
                     const ResidualPolicy& check = {}) const;

  /// Tuned FULL-MULTIGRID_i at `accuracy_index`; same contract as solve_v
  /// (a batch of one on solve_batch_fmg's path).
  SolveStats solve_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
                       std::shared_ptr<obs::PhaseProfile> profile = nullptr,
                       const ResidualPolicy& check = {}) const;

  /// Batched MULTIGRID-V: solves all K iterates xs[k] against the shared
  /// right-hand side `b` in ONE fused plan walk (TunedExecutor::
  /// run_v_multi), so per-sweep setup and every coefficient-stream load
  /// are paid once for the whole batch instead of once per request.  Each
  /// xs[k] finishes bitwise identical to solve_v(xs[k], b, ...) solo.
  /// Returns one SolveStats per iterate; `seconds` on every entry is the
  /// batch wall-clock (the K solves are inseparable by construction — a
  /// per-request share would be fiction), which is why SolveService
  /// records batch latency once per batch, not per RHS.  Residual audits,
  /// when enabled, run per iterate outside the timed window as in solve_v.
  /// Throws InvalidArgument when two slots share an iterate or an iterate
  /// is b.
  std::vector<SolveStats> solve_batch_v(
      std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
      std::shared_ptr<obs::PhaseProfile> profile = nullptr,
      const ResidualPolicy& check = {}) const;

  /// Batched FULL-MULTIGRID: the ESTIMATE ramps and solve phases of all K
  /// iterates run as one fused walk (TunedExecutor::run_fmg_multi); same
  /// contract as solve_batch_v, each slot bitwise its solve_fmg.
  std::vector<SolveStats> solve_batch_fmg(
      std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
      std::shared_ptr<obs::PhaseProfile> profile = nullptr,
      const ResidualPolicy& check = {}) const;

 private:
  /// The one tuned solve path: one V (or FMG) walk over the batch inside
  /// the timed window, with the optional per-slot residual audits outside
  /// it.  Every public tuned entry point lands here.
  std::vector<SolveStats> solve_tuned(
      std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
      bool fmg, std::shared_ptr<obs::PhaseProfile> profile,
      const ResidualPolicy& check) const;
  /// Fills the audit fields of `stats` from the pre-solve residual `r0`.
  void audit(SolveStats& stats, double r0, const Grid2D& x, const Grid2D& b,
             const ResidualPolicy& check) const;

  Engine& engine_;
  tune::PreparedOperator prepared_;  // one config, executor 0
};

}  // namespace pbmg
