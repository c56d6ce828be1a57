#pragma once

#include <memory>
#include <string>
#include <vector>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "obs/phase_profile.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "tune/prepared_operator.h"
#include "tune/table.h"

/// \file dynamic.h
/// Dynamic tuning — the paper's §6 future-work extension.
///
/// "Another direction we plan to explore is the use of dynamic tuning
///  where an algorithm has the ability to adapt during execution based on
///  some features of the intermediate state … switch between tuned
///  versions of itself, providing better performance across a broader
///  range of inputs."
///
/// DynamicSolver drives statically tuned MULTIGRID-V_i variants with a
/// runtime feedback loop, generalized across *operators* and *families*:
///
///  - It binds one grid::StencilOp at construction and measures op-aware
///    residuals, so any elliptic operator — not just Poisson — gets honest
///    convergence feedback.
///  - It binds an ordered ladder of per-family tuned configs
///    (nearest-family first, as ranked by grid/fingerprint.h).  Within the
///    current family it escalates up the accuracy ladder when a variant
///    underperforms its trained error-reduction class; when that ladder is
///    exhausted and the input still responds worse than the class
///    promises, it switches to the next family's tables instead of
///    stalling — the cross-family half of the §6 loop.
///  - Everything expensive happens once, at bind time, in one
///    tune::PreparedOperator over the ladder's configs: the coefficient
///    ladders, one TunedExecutor per family, the packed diagonals and
///    the scratch warm-up.  solve() touches none of it — two consecutive
///    solves share every prewarmed structure (dynamic_test pins this).
///
/// Honest stats contract (PR 8): DynamicResult reports the executor's
/// *real* per-variant iteration counts, times only the tuned-variant
/// invocations (residual feedback norms run outside the timed window),
/// and sets `converged` from a final residual audit, not the in-loop
/// feedback value.

namespace pbmg::tune {

/// Tuned-variant invocation budget of a dynamic solve: DynamicSolver::solve's
/// default, and what SolveService::solve_op runs every routed request with.
inline constexpr int kInvocationBudget = 64;

/// One rung of the cross-family escalation ladder: a family name (stable
/// grid/problem.h token, used in results and metrics labels) and its
/// tuned tables.  The shared_ptr keeps the config alive for the solver's
/// lifetime (service generations share theirs with their bindings).
struct FamilyConfig {
  std::string family;
  std::shared_ptr<const TunedConfig> config;
};

/// One tuned-variant invocation of a dynamic solve, with the executor's
/// real iteration count — the per-variant half of the honest-stats
/// contract.
struct VariantRun {
  std::string family;       ///< family whose tables ran
  int accuracy_index = 0;   ///< ladder index invoked
  int cycles = 0;           ///< top-level iterations the plan executed
  double reduction = 1.0;   ///< residual reduction this invocation measured
};

/// Outcome of a dynamic solve.
struct DynamicResult {
  int iterations = 0;       ///< tuned-variant invocations performed
  int escalations = 0;      ///< in-family moves up the accuracy ladder
  int family_switches = 0;  ///< cross-family ladder switches
  int final_accuracy_index = 0;  ///< ladder index in use when stopping
  std::string final_family;      ///< family in use when stopping
  double initial_residual = 0.0;  ///< ||b − A·x₀|| (audit, untimed)
  double final_residual = 0.0;    ///< ||b − A·x₁|| (audit, untimed)
  double residual_reduction = 1.0;  ///< ||r_0|| / ||r_final||
  double seconds = 0.0;     ///< summed tuned-variant wall-clock (timed
                            ///< window excludes every residual norm)
  bool converged = false;   ///< final residual audit met the target
  std::vector<VariantRun> variants;  ///< one entry per invocation
};

/// Runtime-adaptive driver over per-family tuned configurations, bound to
/// one operator and grid size.  All solve entry points are const and
/// thread-safe (the scheduler and scratch pool are concurrent); callers
/// bring their own x/b grids.
class DynamicSolver {
 public:
  /// Binds `op` and an ordered escalation ladder (nearest family first;
  /// must be non-empty, every config trained to op's level) to execution
  /// resources (normally one pbmg::Engine's scheduler, direct solver,
  /// scratch pool and relax tunables) through one tune::PreparedOperator —
  /// solve() reuses all of it.  `relax` has no default: a solver on a
  /// packed or searched engine must run that engine's weights and layout.
  DynamicSolver(grid::StencilOp op, std::vector<FamilyConfig> ladder,
                rt::Scheduler& sched, solvers::DirectSolver& direct,
                grid::ScratchPool& pool, const solvers::RelaxTunables& relax);

  /// Single-family convenience: the historical one-config binding (the
  /// config is copied; its op_family provenance names the ladder rung).
  DynamicSolver(const TunedConfig& config, grid::StencilOp op,
                rt::Scheduler& sched, solvers::DirectSolver& direct,
                grid::ScratchPool& pool, const solvers::RelaxTunables& relax);

  /// Not movable: the bound executors hold the hierarchies by address.
  DynamicSolver(const DynamicSolver&) = delete;
  DynamicSolver& operator=(const DynamicSolver&) = delete;

  /// Grid side / recursion level the solver is bound to.
  int n() const { return prepared_.n(); }
  int level() const { return prepared_.level(); }

  /// The bound fine-grid operator and its prewarmed averaged ladder.
  const grid::StencilOp& op() const { return prepared_.op(); }
  const grid::StencilHierarchy& operators() const {
    return prepared_.operators();
  }

  /// Resident bytes the binding pins (PreparedOperator::footprint_bytes).
  std::size_t footprint_bytes() const { return prepared_.footprint_bytes(); }

  /// Family names of the bound escalation ladder, in escalation order.
  std::vector<std::string> families() const;

  /// Solves A·x = b until the residual norm has dropped by
  /// `target_reduction` (>= 1), invoking tuned variants at most
  /// `max_iterations` times.  `x` carries the Dirichlet ring and initial
  /// guess and must match the bound operator's side; it is updated in
  /// place.  `profile`, when non-null, receives the tuned invocations'
  /// per-(level, phase) breakdown (the untimed residual norms are not
  /// attributed).
  DynamicResult solve(Grid2D& x, const Grid2D& b, double target_reduction,
                      int max_iterations = kInvocationBudget,
                      obs::PhaseProfile* profile = nullptr) const;

 private:
  std::vector<FamilyConfig> ladder_;
  PreparedOperator prepared_;  // executor i runs ladder_[i]
};

}  // namespace pbmg::tune
