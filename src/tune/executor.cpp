#include "tune/executor.h"

#include <vector>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/scratch.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"

namespace pbmg::tune {

TunedExecutor::TunedExecutor(const TunedConfig& config, rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             trace::CycleTracer* tracer,
                             const solvers::RelaxTunables& relax,
                             const grid::StencilHierarchy* ops,
                             const grid::StencilHierarchy* ops_rap)
    : config_(config),
      sched_(sched),
      direct_(direct),
      pool_(pool),
      tracer_(tracer),
      relax_(relax),
      ops_(ops),
      ops_rap_(ops_rap) {
  solvers::validate_relax_tunables(relax_);
  PBMG_CHECK(ops_ == nullptr || ops_->top_level() >= 1,
             "TunedExecutor: empty operator hierarchy");
  PBMG_CHECK(ops_rap_ == nullptr || ops_rap_->top_level() >= 1,
             "TunedExecutor: empty RAP operator hierarchy");
  if (ops_ == nullptr && ops_rap_ == nullptr) {
    poisson_rap_tops_.assign(
        static_cast<std::size_t>(config_.max_level()) + 1, false);
    for (int top = 2; top <= config_.max_level(); ++top) {
      poisson_rap_tops_[static_cast<std::size_t>(top)] =
          reach(config_, top).rap_below_top;
    }
  }
}

grid::StencilOp TunedExecutor::op_at(int level, grid::Coarsening coarsening,
                                     RapLadder rap) const {
  if (coarsening == grid::Coarsening::kRap) {
    if (rap.ladder != nullptr) return rap.ladder->at(level);
    // Both ladders share the fine operator, so a RAP cell at the top reads
    // it from the averaged side; below the top, no ladder is a bind bug.
    PBMG_CHECK(level == rap.top,
               "TunedExecutor: config cell tuned for RAP coarsening at level " +
                   std::to_string(level) +
                   " but no RAP ladder was bound for its operator hierarchy");
  }
  return ops_ != nullptr ? ops_->at(level)
                         : grid::StencilOp::poisson(size_of_level(level));
}

TunedExecutor::RapLadder TunedExecutor::rap_for_top(
    int top_level, obs::PhaseProfile* profile) const {
  const int top = ops_ != nullptr ? ops_->top_level() : top_level;
  if (ops_rap_ != nullptr) return {ops_rap_, top};
  const auto k = static_cast<std::size_t>(top_level);
  if (k >= poisson_rap_tops_.size() || !poisson_rap_tops_[k]) {
    return {nullptr, top};  // poisson_rap_tops_ is empty unless bare
  }
  // Bare (Poisson fast path) executor whose tables read RAP below this
  // top: own the Galerkin ladder of the Poisson operator at this top,
  // built once per distinct top level and shared by every subsequent
  // solve.  Guarded so concurrent solves through one executor stay safe;
  // the lock is per public entry, never inside the recursion.
  std::lock_guard<std::mutex> lock(poisson_rap_mutex_);
  auto& slot = poisson_rap_cache_[top_level];
  if (slot == nullptr) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRapSetup, top_level);
    slot = std::make_shared<const grid::StencilHierarchy>(
        grid::StencilOp::poisson(size_of_level(top_level)),
        grid::Coarsening::kRap);
  }
  return {slot.get(), top};
}

void TunedExecutor::trace(trace::Op op, int level, int detail) const {
  if (tracer_ != nullptr) tracer_->record(op, level, detail);
}

int TunedExecutor::run_v(Grid2D& x, const Grid2D& b, int accuracy_index,
                         obs::PhaseProfile* profile) const {
  PBMG_CHECK(x.n() == b.n(), "run_v: grid size mismatch");
  const int level = level_of_size(x.n());
  return run_v_at(x, b, level, accuracy_index, rap_for_top(level, profile),
                  profile);
}

int TunedExecutor::run_v_multi(std::span<Grid2D* const> xs,
                               std::span<const Grid2D* const> bs,
                               int accuracy_index,
                               obs::PhaseProfile* profile) const {
  PBMG_CHECK(xs.size() == bs.size(), "run_v_multi: span size mismatch");
  if (xs.empty()) return 0;
  const int n = xs[0]->n();
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               "run_v_multi: null grid slot");
    PBMG_CHECK(xs[k]->n() == n && bs[k]->n() == n,
               "run_v_multi: grid size mismatch");
  }
  if (xs.size() == 1) return run_v(*xs[0], *bs[0], accuracy_index, profile);
  const int level = level_of_size(n);
  return run_v_multi_at(xs, bs, level, accuracy_index,
                        rap_for_top(level, profile), profile);
}

int TunedExecutor::run_fmg(Grid2D& x, const Grid2D& b, int accuracy_index,
                           obs::PhaseProfile* profile) const {
  PBMG_CHECK(x.n() == b.n(), "run_fmg: grid size mismatch");
  const int level = level_of_size(x.n());
  return run_fmg_at(x, b, level, accuracy_index, rap_for_top(level, profile),
                    profile);
}

void TunedExecutor::recurse_body(Grid2D& x, const Grid2D& b,
                                 int sub_accuracy_index,
                                 solvers::RelaxKind smoother,
                                 grid::Coarsening coarsening,
                                 obs::PhaseProfile* profile) const {
  PBMG_CHECK(x.n() == b.n(), "recurse_body: grid size mismatch");
  const int level = level_of_size(x.n());
  recurse_body_at(x, b, level, sub_accuracy_index, smoother, coarsening,
                  rap_for_top(level, profile), profile);
}

void TunedExecutor::estimate(Grid2D& x, const Grid2D& b,
                             int estimate_accuracy_index,
                             obs::PhaseProfile* profile) const {
  PBMG_CHECK(x.n() == b.n(), "estimate: grid size mismatch");
  const int level = level_of_size(x.n());
  estimate_at(x, b, level, estimate_accuracy_index,
              rap_for_top(level, profile), profile);
}

int TunedExecutor::run_v_at(Grid2D& x, const Grid2D& b, int level,
                            int accuracy_index,
                            RapLadder rap,
                            obs::PhaseProfile* profile) const {
  const VEntry& entry = config_.v_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_v: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case VKind::kDirect: {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
      direct_.solve(op_at(level, grid::Coarsening::kAverage, rap), b, x);
      trace(trace::Op::kDirect, level);
      return 1;
    }
    case VKind::kIterSor: {
      const grid::StencilOp op =
          op_at(level, grid::Coarsening::kAverage, rap);
      const double omega =
          solvers::scaled_omega_opt(x.n(), relax_.omega_scale);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
        solvers::sor_sweep(op, x, b, omega, sched_, relax_.kernels);
      }
      trace(trace::Op::kIterative, level, entry.choice.iterations);
      return entry.choice.iterations;
    }
    case VKind::kRecurse:
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_at(x, b, level, entry.choice.sub_accuracy,
                        entry.choice.smoother, entry.choice.coarsening, rap,
                        profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::recurse_body_at(Grid2D& x, const Grid2D& b, int level,
                                    int sub_accuracy_index,
                                    solvers::RelaxKind smoother,
                                    grid::Coarsening coarsening,
                                    RapLadder rap,
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
  const grid::StencilOp op = op_at(level, coarsening, rap);
  const double recurse_omega = relax_.recurse_omega;
  const obs::Phase relax_phase = solvers::is_line_relax(smoother)
                                     ? obs::Phase::kLineSolve
                                     : obs::Phase::kRelax;
  const auto relax_once = [&] {
    obs::ScopedPhaseTimer timer(profile, relax_phase, level);
    if (solvers::is_line_relax(smoother)) {
      solvers::line_relax_sweep(op, x, b, smoother, sched_, pool_,
                                relax_.kernels);
    } else {
      solvers::sor_sweep(op, x, b, recurse_omega, sched_, relax_.kernels);
    }
  };
  relax_once();
  trace(trace::Op::kRelax, level);

  const int nc = coarse_size(x.n());
  auto rc_lease = pool_.acquire(nc);
  Grid2D& rc = rc_lease.get();  // restriction writes interior + zeros ring
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::restrict_residual(op, x, b, rc, sched_, relax_.kernels);
  }
  trace(trace::Op::kRestrict, level);

  auto e_lease = pool_.acquire(nc);
  Grid2D& e = e_lease.get();
  e.fill(0.0);  // zero guess, zero Dirichlet ring (error equation)
  if (sub_accuracy_index == kClassicalCoarse) {
    // Classical V-cycle coarse call: one recursion body per level (direct
    // at the base), never an accuracy-certified coarse solve.  Identical
    // to solvers::vcycle with ω = recurse ω, one pre/post sweep, and the
    // cell's smoother and coarsening at every level (both travel down the
    // classical ramp just as VCycleOptions would carry them).
    if (level - 1 <= 1) {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level - 1);
      direct_.solve(op_at(level - 1, coarsening, rap), rc, e);
      trace(trace::Op::kDirect, level - 1);
    } else {
      recurse_body_at(e, rc, level - 1, kClassicalCoarse, smoother,
                      coarsening, rap, profile);
    }
  } else {
    run_v_at(e, rc, level - 1, sub_accuracy_index, rap, profile);
  }

  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add(e, x, sched_);
  }
  trace(trace::Op::kInterpolate, level);

  relax_once();
  trace(trace::Op::kRelax, level);
}

int TunedExecutor::run_v_multi_at(std::span<Grid2D* const> xs,
                                  std::span<const Grid2D* const> bs,
                                  int level, int accuracy_index,
                                  RapLadder rap,
                                  obs::PhaseProfile* profile) const {
  const VEntry& entry = config_.v_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_v: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case VKind::kDirect: {
      // The direct base solve has no cross-RHS bandwidth to amortize (its
      // cost is the factorization, shared either way); a plain loop keeps
      // each slot on the solo code path.
      const grid::StencilOp op =
          op_at(level, grid::Coarsening::kAverage, rap);
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        direct_.solve(op, *bs[k], *xs[k]);
      }
      trace(trace::Op::kDirect, level);
      return 1;
    }
    case VKind::kIterSor: {
      const grid::StencilOp op =
          op_at(level, grid::Coarsening::kAverage, rap);
      const double omega =
          solvers::scaled_omega_opt(xs[0]->n(), relax_.omega_scale);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
        solvers::sor_sweep_multi(op, xs, bs, omega, sched_, relax_.kernels);
      }
      trace(trace::Op::kIterative, level, entry.choice.iterations);
      return entry.choice.iterations;
    }
    case VKind::kRecurse:
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_multi_at(xs, bs, level, entry.choice.sub_accuracy,
                              entry.choice.smoother, entry.choice.coarsening,
                              rap, profile);
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
                                          RapLadder rap,
                                          obs::PhaseProfile* profile) const {
  // The solo recurse_body_at, with each kernel swapped for its fused
  // multi-RHS counterpart (or a per-k loop where there is nothing to
  // fuse).  Each k's operation sequence — and therefore its accumulation
  // order — is exactly the solo body's, so the batch stays bitwise
  // identical per slot while coefficient streams are shared across K.
  PBMG_CHECK(level >= 2, "recurse_body: cannot recurse below level 2");
  PBMG_CHECK(sub_accuracy_index >= kClassicalCoarse &&
                 sub_accuracy_index < config_.accuracy_count(),
             "recurse_body: sub-accuracy index out of range");
  const std::size_t batch = xs.size();
  const grid::StencilOp op = op_at(level, coarsening, rap);
  const double recurse_omega = relax_.recurse_omega;
  const obs::Phase relax_phase = solvers::is_line_relax(smoother)
                                     ? obs::Phase::kLineSolve
                                     : obs::Phase::kRelax;
  const auto relax_once = [&] {
    obs::ScopedPhaseTimer timer(profile, relax_phase, level);
    if (solvers::is_line_relax(smoother)) {
      solvers::line_relax_sweep_multi(op, xs, bs, smoother, sched_, pool_,
                                      relax_.kernels);
    } else {
      solvers::sor_sweep_multi(op, xs, bs, recurse_omega, sched_,
                               relax_.kernels);
    }
  };
  relax_once();
  trace(trace::Op::kRelax, level);

  const int n = xs[0]->n();
  const int nc = coarse_size(n);
  std::vector<grid::ScratchPool::Lease> r_leases;
  std::vector<grid::ScratchPool::Lease> rc_leases;
  r_leases.reserve(batch);
  rc_leases.reserve(batch);
  std::vector<const Grid2D*> xs_read(xs.begin(), xs.end());
  std::vector<Grid2D*> rs(batch);
  std::vector<Grid2D*> rcs(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    r_leases.push_back(pool_.acquire(n));
    rc_leases.push_back(pool_.acquire(nc));
    rs[k] = &r_leases.back().get();
    rcs[k] = &rc_leases.back().get();
  }
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::residual_op_multi(op, xs_read, bs, rs, sched_, relax_.kernels);
    for (std::size_t k = 0; k < batch; ++k) {
      grid::restrict_full_weighting(*rs[k], *rcs[k], sched_);
    }
  }
  trace(trace::Op::kRestrict, level);

  std::vector<grid::ScratchPool::Lease> e_leases;
  e_leases.reserve(batch);
  std::vector<Grid2D*> es(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    e_leases.push_back(pool_.acquire(nc));
    es[k] = &e_leases.back().get();
    es[k]->fill(0.0);  // zero guess, zero Dirichlet ring (error equation)
  }
  std::vector<const Grid2D*> rcs_read(rcs.begin(), rcs.end());
  if (sub_accuracy_index == kClassicalCoarse) {
    if (level - 1 <= 1) {
      const grid::StencilOp coarse_op = op_at(level - 1, coarsening, rap);
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level - 1);
      for (std::size_t k = 0; k < batch; ++k) {
        direct_.solve(coarse_op, *rcs[k], *es[k]);
      }
      trace(trace::Op::kDirect, level - 1);
    } else {
      recurse_body_multi_at(es, rcs_read, level - 1, kClassicalCoarse,
                            smoother, coarsening, rap, profile);
    }
  } else {
    run_v_multi_at(es, rcs_read, level - 1, sub_accuracy_index, rap, profile);
  }

  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    for (std::size_t k = 0; k < batch; ++k) {
      grid::interpolate_add(*es[k], *xs[k], sched_);
    }
  }
  trace(trace::Op::kInterpolate, level);

  relax_once();
  trace(trace::Op::kRelax, level);
}

int TunedExecutor::run_fmg_at(Grid2D& x, const Grid2D& b, int level,
                              int accuracy_index,
                              RapLadder rap,
                              obs::PhaseProfile* profile) const {
  const FmgEntry& entry = config_.fmg_entry(level, accuracy_index);
  PBMG_CHECK(entry.trained, "run_fmg: cell (" + std::to_string(level) + "," +
                                std::to_string(accuracy_index) +
                                ") was never trained");
  switch (entry.choice.kind) {
    case FmgKind::kDirect: {
      obs::ScopedPhaseTimer timer(profile, obs::Phase::kDirect, level);
      direct_.solve(op_at(level, grid::Coarsening::kAverage, rap), b, x);
      trace(trace::Op::kDirect, level);
      return 1;
    }
    case FmgKind::kEstimateThenSor: {
      estimate_at(x, b, level, entry.choice.estimate_accuracy, rap, profile);
      const grid::StencilOp op =
          op_at(level, grid::Coarsening::kAverage, rap);
      const double omega =
          solvers::scaled_omega_opt(x.n(), relax_.omega_scale);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
        solvers::sor_sweep(op, x, b, omega, sched_, relax_.kernels);
      }
      trace(trace::Op::kIterative, level, entry.choice.iterations);
      return entry.choice.iterations;
    }
    case FmgKind::kEstimateThenRecurse:
      estimate_at(x, b, level, entry.choice.estimate_accuracy, rap, profile);
      for (int it = 0; it < entry.choice.iterations; ++it) {
        recurse_body_at(x, b, level, entry.choice.solve_accuracy,
                        entry.choice.smoother, entry.choice.coarsening, rap,
                        profile);
      }
      return entry.choice.iterations;
  }
  return 0;  // unreachable; silences -Wreturn-type
}

void TunedExecutor::estimate_at(Grid2D& x, const Grid2D& b, int level,
                                int estimate_accuracy_index,
                                RapLadder rap,
                                obs::PhaseProfile* profile) const {
  PBMG_CHECK(level >= 2, "estimate: cannot restrict below level 2");
  // Paper §2.4 ESTIMATE_i: coarse-grid correction whose coarse solve is
  // FULL-MULTIGRID_i one level down (no relaxations of its own).  The
  // residual always uses the averaged ladder (exact at the hierarchy's
  // top, the historical path below it); the coarsening axis applies to
  // the RECURSE bodies, whose cells carry it, not to the estimate phase —
  // training and execution share this rule, so measurements stay honest.
  const int nc = coarse_size(x.n());
  auto rc_lease = pool_.acquire(nc);
  Grid2D& rc = rc_lease.get();
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
    grid::restrict_residual(op_at(level, grid::Coarsening::kAverage, rap), x,
                            b, rc, sched_, relax_.kernels);
  }
  trace(trace::Op::kRestrict, level);

  auto e_lease = pool_.acquire(nc);
  Grid2D& e = e_lease.get();
  e.fill(0.0);
  run_fmg_at(e, rc, level - 1, estimate_accuracy_index, rap, profile);

  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add(e, x, sched_);
  }
  trace(trace::Op::kInterpolate, level);
}

}  // namespace pbmg::tune
