#include "tune/executor.h"

#include <string>
#include <vector>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/scratch.h"
#include "solvers/relax.h"

namespace pbmg::tune {

TunedExecutor::TunedExecutor(const TunedConfig& config, rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             const solvers::RelaxTunables& relax,
                             const grid::StencilHierarchy& ops,
                             const grid::StencilHierarchy* ops_rap,
                             trace::CycleTracer* tracer)
    : config_(config),
      sched_(sched),
      direct_(direct),
      pool_(pool),
      relax_(relax),
      ops_(ops),
      ops_rap_(ops_rap),
      tracer_(tracer) {
  solvers::validate_relax_tunables(relax_);
  PBMG_CHECK(ops_.top_level() >= 1, "TunedExecutor: empty operator hierarchy");
  PBMG_CHECK(ops_rap_ == nullptr || ops_rap_->top_level() == ops_.top_level(),
             "TunedExecutor: the RAP ladder must share the averaged "
             "ladder's fine operator");
}

const grid::StencilOp& TunedExecutor::op_at(
    int level, grid::Coarsening coarsening) const {
  if (coarsening == grid::Coarsening::kRap) {
    if (ops_rap_ != nullptr) return ops_rap_->at(level);
    // Both ladders share the fine operator, so a RAP cell at the top reads
    // it from the averaged side; below the top, no ladder is a bind bug.
    PBMG_CHECK(level == ops_.top_level(),
               "TunedExecutor: config cell tuned for RAP coarsening at level " +
                   std::to_string(level) +
                   " but no RAP ladder was bound for its operator hierarchy");
  }
  return ops_.at(level);
}

void TunedExecutor::trace(trace::Op op, int level, int detail) const {
  if (tracer_ != nullptr) tracer_->record(op, level, detail);
}

namespace {

/// The iterates of a batch as read-only grids (the next level's
/// right-hand sides, or the fine side of a restriction).
std::span<const Grid2D* const> as_read(std::span<Grid2D* const> grids) {
  return {grids.data(), grids.size()};
}

/// One scratch grid per batch slot, leased for one walk step.
class SlotGrids {
 public:
  SlotGrids(grid::ScratchPool& pool, int n, std::size_t count) {
    leases_.reserve(count);
    grids_.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      leases_.push_back(pool.acquire(n));
      grids_.push_back(&leases_.back().get());
    }
  }

  std::span<Grid2D* const> grids() const { return grids_; }

 private:
  std::vector<grid::ScratchPool::Lease> leases_;
  std::vector<Grid2D*> grids_;
};

/// Validates a batch at a public entry point and returns its level:
/// equal non-empty spans, no null slot, one grid size, and no iterate
/// shared by two slots or read as a right-hand side.  `what` names the
/// entry point in the error.
int batch_level(std::span<Grid2D* const> xs,
                std::span<const Grid2D* const> bs, const char* what) {
  PBMG_CHECK(!xs.empty() && xs.size() == bs.size(),
             std::string(what) + ": span size mismatch");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               std::string(what) + ": null grid slot");
    PBMG_CHECK(xs[k]->n() == xs[0]->n() && bs[k]->n() == xs[0]->n(),
               std::string(what) + ": grid size mismatch");
    // Each slot's walk writes its iterate while every slot's walk reads
    // its right-hand side, so an iterate may be neither another slot's
    // iterate nor any slot's right-hand side.  Right-hand sides may be
    // shared: they are only read.
    for (std::size_t j = 0; j < xs.size(); ++j) {
      PBMG_CHECK(j == k || xs[j] != xs[k],
                 std::string(what) + ": two slots share one iterate");
      PBMG_CHECK(bs[j] != xs[k],
                 std::string(what) + ": an iterate is a right-hand side");
    }
  }
  return level_of_size(xs[0]->n());
}

}  // namespace

int TunedExecutor::run_v(Grid2D& x, const Grid2D& b, int accuracy_index,
                         obs::PhaseProfile* profile) const {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  return run_v_multi(xs, bs, accuracy_index, profile);
}

int TunedExecutor::run_v_multi(std::span<Grid2D* const> xs,
                               std::span<const Grid2D* const> bs,
                               int accuracy_index,
                               obs::PhaseProfile* profile) const {
  if (xs.empty() && bs.empty()) return 0;
  const int level = batch_level(xs, bs, "run_v");
  const rt::SolveScope solve;
  return run_v_multi_at(xs, bs, level, accuracy_index, profile);
}

int TunedExecutor::run_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
                           obs::PhaseProfile* profile) const {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  return run_fmg_multi(xs, bs, accuracy_index, profile);
}

int TunedExecutor::run_fmg_multi(std::span<Grid2D* const> xs,
                                 std::span<const Grid2D* const> bs,
                                 int accuracy_index,
                                 obs::PhaseProfile* profile) const {
  if (xs.empty() && bs.empty()) return 0;
  const int level = batch_level(xs, bs, "run_fmg");
  const rt::SolveScope solve;
  return run_fmg_multi_at(xs, bs, level, accuracy_index, profile);
}

void TunedExecutor::recurse_body(Grid2D& x, const Grid2D& b,
                                 int sub_accuracy_index,
                                 solvers::RelaxKind smoother,
                                 grid::Coarsening coarsening,
                                 obs::PhaseProfile* profile) const {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  const int level = batch_level(xs, bs, "recurse_body");
  const rt::SolveScope solve;
  recurse_body_multi_at(xs, bs, level, sub_accuracy_index, smoother,
                        coarsening, profile);
}

void TunedExecutor::estimate(Grid2D& x, const Grid2D& b,
                             int estimate_accuracy_index,
                             obs::PhaseProfile* profile) const {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  const int level = batch_level(xs, bs, "estimate");
  const rt::SolveScope solve;
  estimate_multi_at(xs, bs, level, estimate_accuracy_index, profile);
}

void TunedExecutor::direct_multi_at(std::span<Grid2D* const> xs,
                                    std::span<const Grid2D* const> bs,
                                    int level, grid::Coarsening coarsening,
                                    obs::PhaseProfile* profile) const {
  // The direct base solve has no cross-RHS bandwidth to amortize (its
  // cost is the factorization, shared either way), so it loops the slots.
  const grid::StencilOp& op = op_at(level, coarsening);
  obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    direct_.solve(op, *bs[k], *xs[k]);
  }
  trace(trace::Op::kDirect, level);
}

void TunedExecutor::sor_multi_at(std::span<Grid2D* const> xs,
                                 std::span<const Grid2D* const> bs, int level,
                                 int iterations,
                                 obs::PhaseProfile* profile) const {
  const grid::StencilOp& op = op_at(level, grid::Coarsening::kAverage);
  const double omega =
      solvers::scaled_omega_opt(size_of_level(level), relax_.omega_scale);
  for (int it = 0; it < iterations; ++it) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    solvers::sor_sweep_multi(op, xs, bs, omega, sched_, relax_.kernels);
  }
  trace(trace::Op::kIterative, level, iterations);
}

int TunedExecutor::run_v_multi_at(std::span<Grid2D* const> xs,
                                  std::span<const Grid2D* const> bs,
                                  int level, int accuracy_index,
                                  obs::PhaseProfile* profile) const {
  const VEntry& entry = config_.v_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_v: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case VKind::kDirect:
      direct_multi_at(xs, bs, level, grid::Coarsening::kAverage, profile);
      return 1;
    case VKind::kIterSor:
      sor_multi_at(xs, bs, level, entry.choice.iterations, profile);
      return entry.choice.iterations;
    case VKind::kRecurse:
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_multi_at(xs, bs, level, entry.choice.sub_accuracy,
                              entry.choice.smoother, entry.choice.coarsening,
                              profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::recurse_body_multi_at(std::span<Grid2D* const> xs,
                                          std::span<const Grid2D* const> bs,
                                          int level, int sub_accuracy_index,
                                          solvers::RelaxKind smoother,
                                          grid::Coarsening coarsening,
                                          obs::PhaseProfile* profile) const {
  PBMG_CHECK(level >= 2, "recurse_body: cannot recurse below level 2");
  PBMG_CHECK(sub_accuracy_index >= kClassicalCoarse &&
                 sub_accuracy_index < config_.accuracy_count(),
             "recurse_body: sub-accuracy index out of range");
  // Paper §2.3 RECURSE_i: one pre-relaxation, coarse-grid correction via
  // MULTIGRID-V_j, one post-relaxation.  The relaxation is the cell's
  // tuned smoother: point SOR at ω (the paper's 1.15 unless the
  // runtime-parameter search handed this executor a tuned value), or a
  // line variant for operators where point relaxation stalls.  The
  // operator comes from the cell's tuned ladder: averaged coefficients
  // (the historical path) or the exact Galerkin RAP coarse operators.
  // The head (pre-relaxation, residual restriction, zeroed correction)
  // and the tail (interpolated correction, post-relaxation) each take the
  // whole batch and time themselves; with point SOR on Poisson or under
  // the packed layout each is one fused pass.  Every slot's operation
  // sequence is exactly its solo walk's.
  const grid::StencilOp& op = op_at(level, coarsening);
  const int nc = coarse_size(size_of_level(level));
  const SlotGrids rc(pool_, nc, xs.size());
  const SlotGrids e(pool_, nc, xs.size());
  solvers::recurse_head(op, xs, bs, smoother, relax_.recurse_omega,
                        rc.grids(), e.grids(), sched_, pool_, relax_.kernels,
                        profile);
  trace(trace::Op::kRelax, level);
  trace(trace::Op::kRestrict, level);

  const std::span<const Grid2D* const> rcs = as_read(rc.grids());
  if (sub_accuracy_index == kClassicalCoarse) {
    // Classical V-cycle coarse call: one recursion body per level (direct
    // at the base), never an accuracy-certified coarse solve.  Identical
    // to solvers::vcycle with ω = recurse ω, one pre/post sweep, and the
    // cell's smoother and coarsening at every level (both travel down the
    // classical ramp just as VCycleOptions would carry them).
    if (level - 1 <= 1) {
      direct_multi_at(e.grids(), rcs, level - 1, coarsening, profile);
    } else {
      recurse_body_multi_at(e.grids(), rcs, level - 1, kClassicalCoarse,
                            smoother, coarsening, profile);
    }
  } else {
    run_v_multi_at(e.grids(), rcs, level - 1, sub_accuracy_index, profile);
  }

  solvers::recurse_tail(op, as_read(e.grids()), xs, bs, smoother,
                        relax_.recurse_omega, sched_, pool_, relax_.kernels,
                        profile);
  trace(trace::Op::kInterpolate, level);
  trace(trace::Op::kRelax, level);
}

int TunedExecutor::run_fmg_multi_at(std::span<Grid2D* const> xs,
                                    std::span<const Grid2D* const> bs,
                                    int level, int accuracy_index,
                                    obs::PhaseProfile* profile) const {
  const FmgEntry& entry = config_.fmg_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_fmg: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case FmgKind::kDirect:
      direct_multi_at(xs, bs, level, grid::Coarsening::kAverage, profile);
      return 1;
    case FmgKind::kEstimateThenSor:
      estimate_multi_at(xs, bs, level, entry.choice.estimate_accuracy, profile);
      sor_multi_at(xs, bs, level, entry.choice.iterations, profile);
      return entry.choice.iterations;
    case FmgKind::kEstimateThenRecurse:
      estimate_multi_at(xs, bs, level, entry.choice.estimate_accuracy, profile);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_multi_at(xs, bs, level, entry.choice.solve_accuracy,
                              entry.choice.smoother, entry.choice.coarsening,
                              profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::estimate_multi_at(std::span<Grid2D* const> xs,
                                      std::span<const Grid2D* const> bs,
                                      int level, int estimate_accuracy_index,
                                      obs::PhaseProfile* profile) const {
  PBMG_CHECK(level >= 2, "estimate: cannot restrict below level 2");
  // Paper §2.4 ESTIMATE_i: coarse-grid correction whose coarse solve is
  // FULL-MULTIGRID_i one level down (no relaxations of its own).  The
  // residual always uses the averaged ladder (exact at the hierarchy's
  // top, the historical path below it); the coarsening axis applies to
  // the RECURSE bodies, whose cells carry it, not to the estimate phase —
  // training and execution share this rule, so measurements stay honest.
  const int nc = coarse_size(size_of_level(level));
  const SlotGrids rc(pool_, nc, xs.size());
  const SlotGrids e(pool_, nc, xs.size());
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::restrict_residual_multi(
        op_at(level, grid::Coarsening::kAverage), as_read(xs), bs,
        rc.grids(), sched_, relax_.kernels, e.grids());
  }
  trace(trace::Op::kRestrict, level);

  run_fmg_multi_at(e.grids(), as_read(rc.grids()), level - 1,
                   estimate_accuracy_index, profile);
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add_multi(as_read(e.grids()), xs, sched_);
  }
  trace(trace::Op::kInterpolate, level);
}

}  // namespace pbmg::tune
