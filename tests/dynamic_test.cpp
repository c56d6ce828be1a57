// Tests for the dynamic-tuning extension (paper §6 future work): the
// runtime-adaptive driver over statically tuned variants must converge on
// in-distribution inputs without escalating much, escalate on inputs that
// respond worse than the trained class promises — up the accuracy ladder
// and, when bound to a multi-family ladder, across families — respect its
// iteration budget, and share every bind-time prewarmed structure across
// consecutive solves.

#include <gtest/gtest.h>

#include <memory>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "obs/phase_profile.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/dynamic.h"
#include "tune/trainer.h"

namespace pbmg::tune {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "dynamic-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

const TunedConfig& trained() {
  static const TunedConfig config = [] {
    TrainerOptions options;
    options.max_level = 5;
    options.train_fmg = false;
    options.seed = 1717;
    Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

DynamicSolver poisson_solver(int n) {
  return DynamicSolver(trained(), grid::StencilOp::poisson(n), sched(),
                      engine().direct(), engine().scratch(), engine().relax());
}

/// Hand-built RAP config: every non-base cell recurses against the
/// Galerkin ladder with 2·(i+1) iterations.  Deterministic (no training
/// run) and it exercises the second coefficient hierarchy, which is what
/// the prewarm-sharing regression below needs live.
TunedConfig rap_config(int max_level, const std::string& family) {
  TunedConfig config(paper_accuracies(), max_level);
  for (int level = 2; level <= max_level; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      VEntry& cell = config.v_entry(level, i);
      cell.choice.kind = VKind::kRecurse;
      cell.choice.sub_accuracy = kClassicalCoarse;
      cell.choice.iterations = 2 * (i + 1);
      cell.choice.coarsening = grid::Coarsening::kRap;
      cell.trained = true;
    }
  }
  config.op_family = family;
  config.strategy = "hand-built";
  return config;
}

double residual_norm(const Grid2D& x, const Grid2D& b) {
  Grid2D r(x.n(), 0.0);
  grid::residual(x, b, r, sched());
  return grid::norm2_interior(r, sched());
}

TEST(DynamicSolver, ConvergesToResidualTargetInDistribution) {
  const int n = size_of_level(5);
  const DynamicSolver solver = poisson_solver(n);
  Rng rng(42);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const double r0 = residual_norm(x, problem.b);
  const auto result = solver.solve(x, problem.b, 1e8);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(residual_norm(x, problem.b), r0 / 1e8 * 1.0001);
  EXPECT_GE(result.residual_reduction, 1e8);
  // Honest-stats contract: the audit residuals match an independent
  // recomputation, and the per-variant log accounts for every invocation.
  EXPECT_EQ(static_cast<int>(result.variants.size()), result.iterations);
  EXPECT_NEAR(result.initial_residual, r0, 1e-12 * r0);
  for (const VariantRun& run : result.variants) {
    EXPECT_EQ(run.family, "poisson");
    EXPECT_GE(run.cycles, 1);
  }
}

TEST(DynamicSolver, ConvergesAcrossDistributions) {
  // The point of dynamic tuning: one config, robust behaviour on inputs
  // from other distribution classes.
  const int n = size_of_level(5);
  const DynamicSolver solver = poisson_solver(n);
  for (auto dist :
       {InputDistribution::kBiased, InputDistribution::kPointSources}) {
    Rng rng(43);
    auto problem = make_problem(n, dist, rng);
    Grid2D x = problem.x0;
    const auto result = solver.solve(x, problem.b, 1e6);
    EXPECT_TRUE(result.converged) << to_string(dist);
  }
}

TEST(DynamicSolver, TrivialTargetNeedsNoEscalation) {
  const int n = size_of_level(4);
  const DynamicSolver solver = poisson_solver(n);
  Rng rng(44);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const auto result = solver.solve(x, problem.b, 2.0);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.escalations, 0);
  EXPECT_EQ(result.family_switches, 0);
  EXPECT_LE(result.iterations, 2);
}

TEST(DynamicSolver, DeepTargetsClimbTheLadder) {
  // Demanding far more reduction than the cheapest variant delivers per
  // call forces the driver up the accuracy ladder.
  const int n = size_of_level(5);
  const DynamicSolver solver = poisson_solver(n);
  Rng rng(45);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const auto result = solver.solve(x, problem.b, 1e12, 64);
  EXPECT_GE(result.final_accuracy_index, 0);
  EXPECT_LE(result.final_accuracy_index, trained().accuracy_count() - 1);
  // Either converged, or honestly reported non-convergence within budget.
  if (!result.converged) {
    EXPECT_EQ(result.iterations, 64);
  }
}

TEST(DynamicSolver, RespectsIterationBudget) {
  const int n = size_of_level(5);
  const DynamicSolver solver = poisson_solver(n);
  Rng rng(46);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const auto result = solver.solve(x, problem.b, 1e30, 3);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.variants.size(), 3u);
}

TEST(DynamicSolver, AlreadyConvergedInputReturnsImmediately) {
  const int n = size_of_level(4);
  const DynamicSolver solver = poisson_solver(n);
  // x solves A·x = b exactly when b = A·x by construction.
  Rng rng(47);
  Grid2D x(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
  }
  Grid2D b(n, 0.0);
  grid::apply_poisson(x, b, sched());
  Grid2D guess = x;  // start at the exact solution
  const auto result = solver.solve(guess, b, 1e6);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 1);
}

TEST(DynamicSolver, ValidatesArguments) {
  const DynamicSolver solver = poisson_solver(17);
  Grid2D x(17, 0.0), b(33, 0.0);
  EXPECT_THROW(solver.solve(x, b, 10.0), InvalidArgument);
  Grid2D b17(17, 0.0);
  EXPECT_THROW(solver.solve(x, b17, 0.5), InvalidArgument);
  EXPECT_THROW(
      DynamicSolver(grid::StencilOp::poisson(17), {}, sched(),
                    engine().direct(), engine().scratch(), engine().relax()),
      InvalidArgument);
}

TEST(DynamicSolver, PrewarmSharedAcrossSolves) {
  // Regression for the per-call executor rebuild: solve() used to
  // construct a TunedExecutor on every invocation.  Bind a RAP config to
  // a variable-coefficient operator and run two consecutive profiled
  // solves: both converge, and the operator hierarchy's footprint must
  // not move between solves (the Galerkin ladder was coarsened at bind
  // time; nothing re-materializes per call).
  const int level = 4;
  const int n = size_of_level(level);
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  const DynamicSolver solver(rap_config(level, "jump"), op, sched(),
                             engine().direct(), engine().scratch(),
                             engine().relax());
  const std::size_t bytes_before = solver.operators().bytes();
  Rng rng(48);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  for (int pass = 0; pass < 2; ++pass) {
    obs::PhaseProfile profile;
    Grid2D x = problem.x0;
    const auto result = solver.solve(x, problem.b, 1e3, 64, &profile);
    EXPECT_TRUE(result.converged) << "pass " << pass;
  }
  EXPECT_EQ(solver.operators().bytes(), bytes_before);
}

TEST(DynamicSolver, JumpUnderPoissonStartEscalatesCrossFamily) {
  // The cross-family half of the §6 loop: a high-contrast jump operator
  // under a Poisson-trained start.  The Poisson tables' cycle shapes were
  // certified on constant coefficients; on the jump interface their
  // per-invocation reductions fall under each accuracy class's promise,
  // so the driver climbs the accuracy ladder, exhausts it, and switches
  // to the jump rung (Galerkin RAP tables) to finish.
  const int level = 5;
  const int n = size_of_level(level);
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  std::vector<FamilyConfig> ladder;
  ladder.push_back(
      {"poisson", std::make_shared<const TunedConfig>(trained())});
  ladder.push_back({"jump", std::make_shared<const TunedConfig>(
                                rap_config(level, "jump"))});
  const DynamicSolver solver(op, std::move(ladder), sched(),
                             engine().direct(), engine().scratch(),
                             engine().relax());
  EXPECT_EQ(solver.families(),
            (std::vector<std::string>{"poisson", "jump"}));
  Rng rng(49);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const auto result = solver.solve(x, problem.b, 1e6, 64);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.family_switches, 1);
  EXPECT_EQ(result.final_family, "jump");
  EXPECT_GE(result.residual_reduction, 1e6);
}

TEST(DynamicSolver, PreallocatesTheLevelHierarchy) {
  // The bind stocks the engine's scratch pool the way a SolveSession's
  // does, so the first solve — every executor on the ladder, plus the
  // feedback residuals — draws from the warmed free-list, never malloc.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "dynamic-prewarm";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  const int level = 5;
  const int n = size_of_level(level);
  std::vector<FamilyConfig> ladder;
  ladder.push_back(
      {"poisson", std::make_shared<const TunedConfig>(trained())});
  ladder.push_back({"jump", std::make_shared<const TunedConfig>(
                                rap_config(level, "jump"))});
  const DynamicSolver solver(
      make_operator(n, OperatorFamily::kJumpCoefficient), std::move(ladder),
      local.scheduler(), local.direct(), local.scratch(), local.relax());
  EXPECT_GT(local.scratch().pooled(), 0u);
  const auto warm = local.scratch().stats();
  Rng rng(49);  // the input that escalates across families above
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const auto result = solver.solve(x, problem.b, 1e6, 64);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.family_switches, 1);  // both executors ran
  const auto after = local.scratch().stats();
  EXPECT_GT(after.hits, warm.hits);
  EXPECT_EQ(after.misses, warm.misses);  // nothing allocated on the path
}

}  // namespace
}  // namespace pbmg::tune
