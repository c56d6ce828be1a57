#include "engine/solve_session.h"

#include <cmath>
#include <utility>
#include <vector>

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
    PBMG_CHECK(x->n() == n() && b.n() == n(),
               "SolveSession: operand size mismatch (session is bound to n=" +
                   std::to_string(n()) + ")");
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
    SolveStats stats;
    stats.seconds = seconds;
    stats.n = n();
    stats.level = level();
    stats.accuracy_index = accuracy_index;
    stats.iterations = iterations;
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

}  // namespace pbmg
