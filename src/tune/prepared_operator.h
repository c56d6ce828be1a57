#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/relax.h"
#include "tune/executor.h"
#include "tune/table.h"

/// \file prepared_operator.h
/// One fine operator prepared for tuned solves under one or more configs.
///
/// Everything a tuned walk reads that does not depend on the right-hand
/// side is built here, once, at bind time, and only what the solves
/// entering at the operator's level can reach (tune::reach over every
/// config):
///  - the averaged coefficient ladder, always;
///  - the Galerkin RAP ladder, coarsened on the engine's workers, only
///    when a reachable cell reads it below the top — at the top both
///    ladders share the fine operator, which the executors read from the
///    averaged side;
///  - one TunedExecutor per config, bound to those ladders;
///  - the packed rows' 5-point diagonals (StencilOp::packed), when the
///    relax tunables select the packed kernel layout;
///  - the scratch grids a V/FMG walk leases, stocked into the pool: two
///    per level, or four when a reachable body runs a line smoother.
/// No solve then coarsens, packs or allocates on its timed path.
///
/// This is the only place a served ladder is made: a TunedExecutor binds
/// the ladders it is given and never builds or looks one up, and the
/// trainer builds only the ladders it races.  SolveSession (one config)
/// and tune::DynamicSolver (a family ladder) are entry points over one of
/// these, and SolveService budgets and evicts both by footprint_bytes().

namespace pbmg::tune {

class PreparedOperator {
 public:
  /// Prepares `op` for every config in `configs` on one engine's
  /// resources (the scheduler, direct solver and pool must outlive this
  /// object; the relax tunables are copied).  Throws InvalidArgument when
  /// `configs` is empty, holds null, or holds a config not trained up to
  /// op's level.
  PreparedOperator(grid::StencilOp op,
                   std::vector<std::shared_ptr<const TunedConfig>> configs,
                   rt::Scheduler& sched, solvers::DirectSolver& direct,
                   grid::ScratchPool& pool,
                   const solvers::RelaxTunables& relax);

  /// Not movable: the executors hold the ladders and configs by address.
  PreparedOperator(const PreparedOperator&) = delete;
  PreparedOperator& operator=(const PreparedOperator&) = delete;

  int n() const { return n_; }
  int level() const { return level_; }

  /// The fine-grid operator and its averaged ladder.
  const grid::StencilOp& op() const { return ops_.at(level_); }
  const grid::StencilHierarchy& operators() const { return ops_; }

  /// The i-th config and the executor bound to it, in construction order.
  const TunedConfig& config(std::size_t i) const { return *configs_.at(i); }
  const TunedExecutor& executor(std::size_t i) const {
    return *executors_.at(i);
  }

  /// Resident bytes this binding pins: the coefficient ladders (averaged
  /// and RAP, packed diagonals included) plus the scratch grids its solves
  /// cycle through.  Each level is counted once: the RAP ladder adds only
  /// its levels below the top, whose operator is the averaged ladder's.
  /// The scratch term is the warm-up estimate: pool grids are shared by
  /// every binding on one engine, so this is an admission and eviction
  /// figure, not an exclusive-ownership measurement.
  std::size_t footprint_bytes() const { return footprint_bytes_; }

  /// ||b − A·x|| over the interior, on a pool-leased scratch grid.
  double residual_norm(const Grid2D& x, const Grid2D& b) const;

 private:
  int n_;
  int level_;
  std::vector<std::shared_ptr<const TunedConfig>> configs_;
  rt::Scheduler& sched_;
  grid::ScratchPool& pool_;
  solvers::RelaxTunables relax_;
  grid::StencilHierarchy ops_;      // built before the executors below
  grid::StencilHierarchy ops_rap_;  // Galerkin ladder; empty unless a
                                    // reachable cell reads it below the top
  std::vector<std::unique_ptr<TunedExecutor>> executors_;
  std::size_t footprint_bytes_ = 0;
};

}  // namespace pbmg::tune
