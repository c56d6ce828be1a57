#include "tune/dynamic.h"

#include <cmath>
#include <limits>
#include <utility>

#include "support/timer.h"

namespace pbmg::tune {

namespace {

std::vector<FamilyConfig> single_rung(const TunedConfig& config) {
  std::vector<FamilyConfig> ladder;
  ladder.push_back(
      {config.op_family, std::make_shared<const TunedConfig>(config)});
  return ladder;
}

std::vector<std::shared_ptr<const TunedConfig>> configs_of(
    const std::vector<FamilyConfig>& ladder) {
  std::vector<std::shared_ptr<const TunedConfig>> configs;
  configs.reserve(ladder.size());
  for (const FamilyConfig& rung : ladder) configs.push_back(rung.config);
  return configs;
}

}  // namespace

DynamicSolver::DynamicSolver(grid::StencilOp op,
                             std::vector<FamilyConfig> ladder,
                             rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             const solvers::RelaxTunables& relax)
    : ladder_(std::move(ladder)),
      prepared_(std::move(op), configs_of(ladder_), sched, direct, pool,
                relax) {}

DynamicSolver::DynamicSolver(const TunedConfig& config, grid::StencilOp op,
                             rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             const solvers::RelaxTunables& relax)
    : DynamicSolver(std::move(op), single_rung(config), sched, direct, pool,
                    relax) {}

std::vector<std::string> DynamicSolver::families() const {
  std::vector<std::string> names;
  names.reserve(ladder_.size());
  for (const FamilyConfig& rung : ladder_) names.push_back(rung.family);
  return names;
}

DynamicResult DynamicSolver::solve(Grid2D& x, const Grid2D& b,
                                   double target_reduction,
                                   int max_iterations,
                                   obs::PhaseProfile* profile) const {
  PBMG_CHECK(target_reduction >= 1.0,
             "DynamicSolver: target_reduction must be >= 1");
  PBMG_CHECK(x.n() == n() && b.n() == n(),
             "DynamicSolver: operand size mismatch (solver is bound to n=" +
                 std::to_string(n()) + ")");

  DynamicResult result;
  result.final_family = ladder_.front().family;
  const double r0 = prepared_.residual_norm(x, b);
  result.initial_residual = r0;
  result.final_residual = r0;
  if (r0 == 0.0) {
    // Already exact (or an all-zero problem): nothing to run, and by the
    // residual-audit contract an exact iterate counts as converged.
    result.converged = true;
    result.residual_reduction = std::numeric_limits<double>::infinity();
    return result;
  }
  const double r_target = r0 / target_reduction;

  std::size_t rung = 0;  // current family on the cross-family ladder
  int index = 0;         // accuracy index within the current family
  double r_prev = r0;
  double r_now = r0;
  for (int it = 1; it <= max_iterations; ++it) {
    const TunedConfig& config = *ladder_[rung].config;
    // Only tuned-variant invocations are timed; the feedback residual
    // norms below run outside the window (honest-stats contract).
    const double t0 = now_seconds();
    const int cycles = prepared_.executor(rung).run_v(x, b, index, profile);
    result.seconds += now_seconds() - t0;
    result.iterations = it;
    r_now = prepared_.residual_norm(x, b);
    result.variants.push_back({ladder_[rung].family, index, cycles,
                               r_prev > 0.0 ? r_prev / r_now : 1.0});
    if (r_now <= r_target) break;
    // Feature of the intermediate state (paper §6): the per-invocation
    // residual reduction.  A variant of accuracy class p_i should shrink
    // the residual by roughly p_i on inputs of the family it was trained
    // on; demand a conservative slice of that and escalate when the input
    // responds worse than its class promises — first up the current
    // family's accuracy ladder, then across to the next-nearest family's
    // tables once this family's ladder is exhausted.
    const double measured = r_prev > 0.0 ? r_prev / r_now : 1.0;
    const double promised =
        config.accuracies()[static_cast<std::size_t>(index)];
    if (measured < std::sqrt(promised)) {
      if (index + 1 < config.accuracy_count()) {
        ++index;
        ++result.escalations;
      } else if (rung + 1 < ladder_.size()) {
        ++rung;
        ++result.family_switches;
        // Carry the escalation depth into the new family (its tables are
        // presumed better matched, but the input already proved it needs
        // the deep end of a ladder); clamp in case ladders differ.
        index = std::min(index, ladder_[rung].config->accuracy_count() - 1);
      }
    }
    r_prev = r_now;
  }
  // Out-of-timed-window residual audit: convergence is judged from a
  // fresh residual of the final iterate, not the in-loop feedback value.
  const double r_final = prepared_.residual_norm(x, b);
  result.final_residual = r_final;
  result.residual_reduction =
      r_final > 0.0 ? r0 / r_final : std::numeric_limits<double>::infinity();
  result.converged = std::isfinite(r_final) && r_final <= r_target;
  result.final_accuracy_index = index;
  result.final_family = ladder_[rung].family;
  return result;
}

}  // namespace pbmg::tune
