#include "engine/solve_session.h"

#include <cmath>
#include <utility>
#include <vector>

#include "solvers/relax.h"
#include "support/timer.h"

namespace pbmg {

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config, int n)
    : SolveSession(engine, std::move(config), grid::StencilOp::poisson(n)) {}

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config,
                           grid::StencilOp op)
    : engine_(engine),
      prepared_(std::move(op),
                {std::make_shared<const tune::TunedConfig>(std::move(config))},
                engine.scheduler(), engine.direct(), engine.scratch(),
                engine.relax()) {}

SolveStats SolveSession::stats_for(double seconds, int accuracy_index,
                                   int iterations, bool converged) const {
  SolveStats stats;
  stats.seconds = seconds;
  stats.n = n();
  stats.level = level();
  stats.accuracy_index = accuracy_index;
  stats.iterations = iterations;
  stats.converged = converged;
  return stats;
}

void SolveSession::check_operands(const Grid2D& x, const Grid2D& b) const {
  PBMG_CHECK(x.n() == n() && b.n() == n(),
             "SolveSession: operand size mismatch (session is bound to n=" +
                 std::to_string(n()) + ")");
}

void SolveSession::audit(SolveStats& stats, double r0, const Grid2D& x,
                         const Grid2D& b, const ResidualPolicy& check) const {
  if (!check.enabled) return;
  const double r1 = prepared_.residual_norm(x, b);
  stats.initial_residual = r0;
  stats.final_residual = r1;
  stats.residual_checked = true;
  // final ≤ limit·initial, with the r0 == 0 edge (already-exact guess, or
  // an all-zero problem) demanding the solve kept it exact.
  stats.converged = std::isfinite(r1) &&
                    (r0 == 0.0 ? r1 == 0.0 : r1 <= check.ratio_limit * r0);
}

std::vector<SolveStats> SolveSession::solve_tuned(
    std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
    bool fmg, std::shared_ptr<obs::PhaseProfile> profile,
    const ResidualPolicy& check) const {
  std::vector<SolveStats> all;
  if (xs.empty()) return all;
  for (const Grid2D* x : xs) {
    PBMG_CHECK(x != nullptr, "SolveSession: null iterate");
    check_operands(*x, b);
  }
  std::vector<double> r0(xs.size(), 0.0);
  if (check.enabled) {
    for (std::size_t k = 0; k < xs.size(); ++k) {
      r0[k] = prepared_.residual_norm(*xs[k], b);
    }
  }
  const std::vector<const Grid2D*> bs(xs.size(), &b);
  const tune::TunedExecutor& executor = prepared_.executor(0);
  const double t0 = now_seconds();
  const int iterations =
      fmg ? executor.run_fmg_multi(xs, bs, accuracy_index, profile.get())
          : executor.run_v_multi(xs, bs, accuracy_index, profile.get());
  const double seconds = now_seconds() - t0;
  all.reserve(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    // Every entry carries the batch wall-clock (see the header: the K
    // solves are one fused walk, there is no honest per-request share).
    SolveStats stats = stats_for(seconds, accuracy_index, iterations, true);
    audit(stats, r0[k], *xs[k], b, check);
    stats.phases = profile;
    all.push_back(std::move(stats));
  }
  return all;
}

SolveStats SolveSession::solve_v(Grid2D& x, const Grid2D& b,
                                 int accuracy_index,
                                 std::shared_ptr<obs::PhaseProfile> profile,
                                 const ResidualPolicy& check) const {
  Grid2D* const xs[] = {&x};
  return std::move(
      solve_tuned(xs, b, accuracy_index, false, std::move(profile), check)
          .front());
}

SolveStats SolveSession::solve_fmg(Grid2D& x, const Grid2D& b,
                                   int accuracy_index,
                                   std::shared_ptr<obs::PhaseProfile> profile,
                                   const ResidualPolicy& check) const {
  Grid2D* const xs[] = {&x};
  return std::move(
      solve_tuned(xs, b, accuracy_index, true, std::move(profile), check)
          .front());
}

std::vector<SolveStats> SolveSession::solve_batch_v(
    std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
    std::shared_ptr<obs::PhaseProfile> profile,
    const ResidualPolicy& check) const {
  return solve_tuned(xs, b, accuracy_index, false, std::move(profile), check);
}

std::vector<SolveStats> SolveSession::solve_batch_fmg(
    std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
    std::shared_ptr<obs::PhaseProfile> profile,
    const ResidualPolicy& check) const {
  return solve_tuned(xs, b, accuracy_index, true, std::move(profile), check);
}

SolveStats SolveSession::solve_reference_v(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  check_operands(x, b);
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_reference_v(
      operators(), x, b, options, max_cycles, stop, engine_.scheduler(),
      engine_.direct(), engine_.scratch());
  SolveStats stats = stats_for(now_seconds() - t0, -1, outcome.iterations,
                               outcome.converged);
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_reference_fmg(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  check_operands(x, b);
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_reference_fmg(
      operators(), x, b, options, max_cycles, stop, engine_.scheduler(),
      engine_.direct(), engine_.scratch());
  SolveStats stats = stats_for(now_seconds() - t0, -1, outcome.iterations,
                               outcome.converged);
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_iterated_sor(Grid2D& x, const Grid2D& b,
                                            int max_sweeps,
                                            const solvers::StopFn& stop) const {
  check_operands(x, b);
  const double omega =
      solvers::scaled_omega_opt(n(), engine_.relax().omega_scale);
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_iterated_sor(
      op(), x, b, omega, max_sweeps, stop, engine_.scheduler());
  return stats_for(now_seconds() - t0, -1, outcome.iterations,
                   outcome.converged);
}

}  // namespace pbmg
