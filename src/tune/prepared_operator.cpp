#include "tune/prepared_operator.h"

#include <utility>

#include "grid/grid_ops.h"
#include "grid/level.h"

namespace pbmg::tune {

PreparedOperator::PreparedOperator(
    grid::StencilOp op, std::vector<std::shared_ptr<const TunedConfig>> configs,
    rt::Scheduler& sched, solvers::DirectSolver& direct,
    grid::ScratchPool& pool, const solvers::RelaxTunables& relax)
    : n_(op.n()),
      level_(level_of_size(op.n())),
      configs_(std::move(configs)),
      sched_(sched),
      pool_(pool),
      relax_(relax),
      ops_(std::move(op)) {
  PBMG_CHECK(!configs_.empty(), "PreparedOperator: no tuned config to bind");
  bool rap_below_top = false;
  bool line_smoothers = false;
  for (const auto& config : configs_) {
    PBMG_CHECK(config != nullptr, "PreparedOperator: null tuned config");
    PBMG_CHECK(config->max_level() >= level_,
               "PreparedOperator: config for family '" + config->op_family +
                   "' trained up to level " +
                   std::to_string(config->max_level()) +
                   " cannot solve level " + std::to_string(level_));
    const Reach r = reach(*config, level_);
    rap_below_top = rap_below_top || r.rap_below_top;
    line_smoothers = line_smoothers || r.line_smoothers;
  }
  // Coarsen the coefficient ladders here, once, so no solve ever
  // re-coarsens (the Poisson fast path stores no grids and costs nothing).
  // The Galerkin ladder is built, on the engine's workers, only when a
  // cell some solve can reach reads it below the top: at the top both
  // ladders share the fine operator, which the executors read from ops_.
  if (rap_below_top) {
    ops_rap_ = grid::StencilHierarchy(ops_.at(level_), grid::Coarsening::kRap,
                                      sched_);
  }
  const grid::StencilHierarchy* rap =
      ops_rap_.top_level() >= 1 ? &ops_rap_ : nullptr;
  executors_.reserve(configs_.size());
  for (const auto& config : configs_) {
    executors_.push_back(std::make_unique<TunedExecutor>(
        *config, sched_, direct, pool_, relax_, ops_, rap));
  }
  // Stock the pool: a V/FMG recursion holds at most two scratch grids per
  // side length at once — the restricted residual and the error of the
  // level above.  The fine residual is never a grid: restrict_residual
  // weighs it row by row from a per-leaf buffer.  Warming two per level
  // means the first request — and every concurrent request after it, once
  // the pool refills — allocates nothing on the solve path.  Line
  // smoothers additionally lease the two Thomas workspace grids per sweep
  // level, so reachable line smoothers warm four.  The audit's
  // residual_norm lease at the fine side fits the fine level's two, which
  // no recursion holds.
  const int per_level = line_smoothers ? 4 : 2;
  std::size_t scratch_bytes = 0;
  for (int k = 1; k <= level_; ++k) {
    const int side = size_of_level(k);
    scratch_bytes += static_cast<std::size_t>(per_level) *
                     static_cast<std::size_t>(side) *
                     static_cast<std::size_t>(side) * sizeof(double);
    std::vector<grid::ScratchPool::Lease> warm;
    warm.reserve(static_cast<std::size_t>(per_level));
    for (int c = 0; c < per_level; ++c) warm.push_back(pool_.acquire(side));
  }  // leases release here, stocking the free-list
  // The RAP ladder's top is ops_'s top (the same coefficients), so only
  // its levels below the top add bytes.
  std::size_t rap_bytes = 0;
  for (int k = 1; k < ops_rap_.top_level(); ++k) {
    rap_bytes += ops_rap_.at(k).bytes();
  }
  footprint_bytes_ = ops_.bytes() + rap_bytes + scratch_bytes;
}

double PreparedOperator::residual_norm(const Grid2D& x,
                                       const Grid2D& b) const {
  auto lease = pool_.acquire(n_);
  grid::residual_op(op(), x, b, lease.get(), sched_, relax_.kernels);
  return grid::norm2_interior(lease.get(), sched_);
}

}  // namespace pbmg::tune
