// Tests for the solver layer: relaxation kernels, the direct solver,
// V-cycles, full multigrid, and the reference iterate-until-converged
// drivers the paper benchmarks against.

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/scratch.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/rng.h"

namespace pbmg::solvers {
namespace {

rt::Scheduler& sched() {
  static rt::Scheduler instance([] {
    rt::MachineProfile p;
    p.name = "solver-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

/// Error of x against the exact discrete solution of (b, boundary-of-x0).
double solution_error(const PoissonProblem& problem, const Grid2D& x) {
  fft::FastPoissonSolver oracle(problem.n());
  Grid2D x_opt(problem.n(), 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  return grid::norm2_diff_interior(x, x_opt, sched());
}

grid::ScratchPool& pool() {
  static grid::ScratchPool instance;
  return instance;
}

PoissonProblem test_problem(int n, std::uint64_t seed,
                            InputDistribution dist = InputDistribution::kUnbiased) {
  Rng rng(seed);
  return make_problem(n, dist, rng);
}

/// The Poisson ladder every reference cycle below binds (it stores no
/// grids: each level is the constant-coefficient fast path).
grid::StencilHierarchy poisson_ladder(int n) {
  return grid::StencilHierarchy(grid::StencilOp::poisson(n));
}

// ---------------------------------------------------------------- relax --

TEST(Relax, OmegaOptFormula) {
  // ω = 2/(1 + sin(πh)).
  EXPECT_NEAR(omega_opt(3), 2.0 / (1.0 + std::sin(M_PI / 2)), 1e-12);
  EXPECT_NEAR(omega_opt(65), 2.0 / (1.0 + std::sin(M_PI / 64)), 1e-12);
  EXPECT_GT(omega_opt(1025), 1.9);  // approaches 2 as h → 0
  EXPECT_THROW(omega_opt(2), InvalidArgument);
}

TEST(Relax, SorSweepReducesError) {
  auto problem = test_problem(33, 11);
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 10; ++s) sor_sweep(x, problem.b, omega_opt(33), sched());
  EXPECT_LT(solution_error(problem, x), e0);
}

TEST(Relax, SorConvergesToExactSolution) {
  auto problem = test_problem(9, 12);
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 300; ++s) sor_sweep(x, problem.b, omega_opt(9), sched());
  EXPECT_LT(solution_error(problem, x), 1e-9 * e0);
}

TEST(Relax, SorWithOptimalOmegaBeatsGaussSeidel) {
  auto problem = test_problem(33, 13);
  Grid2D x_opt_w = problem.x0;
  Grid2D x_gs = problem.x0;
  for (int s = 0; s < 60; ++s) {
    sor_sweep(x_opt_w, problem.b, omega_opt(33), sched());
    sor_sweep(x_gs, problem.b, 1.0, sched());
  }
  EXPECT_LT(solution_error(problem, x_opt_w), solution_error(problem, x_gs));
}

TEST(Relax, SorPreservesBoundary) {
  auto problem = test_problem(17, 14);
  Grid2D x = problem.x0;
  sor_sweep(x, problem.b, 1.15, sched());
  for (int j = 0; j < 17; ++j) {
    ASSERT_EQ(x(0, j), problem.x0(0, j));
    ASSERT_EQ(x(16, j), problem.x0(16, j));
  }
}

TEST(Relax, JacobiSweepReducesErrorAndPreservesBoundary) {
  auto problem = test_problem(17, 15);
  Grid2D x = problem.x0;
  Grid2D scratch(17, 0.0);
  const double e0 = solution_error(problem, x);
  for (int s = 0; s < 40; ++s) {
    jacobi_sweep(x, problem.b, kJacobiOmega, scratch, sched());
  }
  EXPECT_LT(solution_error(problem, x), e0);
  for (int i = 0; i < 17; ++i) {
    ASSERT_EQ(x(i, 0), problem.x0(i, 0));
    ASSERT_EQ(x(i, 16), problem.x0(i, 16));
  }
}

TEST(Relax, SorBeatsJacobiPerSweep) {
  // The paper picked SOR over weighted Jacobi on its training data; verify
  // the same ordering here for equal sweep counts.
  auto problem = test_problem(33, 16);
  Grid2D x_sor = problem.x0;
  Grid2D x_jac = problem.x0;
  Grid2D scratch(33, 0.0);
  for (int s = 0; s < 30; ++s) {
    sor_sweep(x_sor, problem.b, omega_opt(33), sched());
    jacobi_sweep(x_jac, problem.b, kJacobiOmega, scratch, sched());
  }
  EXPECT_LT(solution_error(problem, x_sor), solution_error(problem, x_jac));
}

TEST(Relax, InputValidation) {
  Grid2D x(9, 0.0), b(17, 0.0), scratch(9, 0.0);
  EXPECT_THROW(sor_sweep(x, b, 1.0, sched()), InvalidArgument);
  EXPECT_THROW(jacobi_sweep(x, b, 1.0, scratch, sched()), InvalidArgument);
  Grid2D bad(8, 0.0);
  EXPECT_THROW(sor_sweep(bad, bad, 1.0, sched()), InvalidArgument);
}

/// The spans one batched entry point reads: iterates, right-hand sides,
/// coarse grids and coarse corrections, two slots each by default.
enum BatchRole { kIterates, kRhs, kCoarse, kCorrections };

struct Batch {
  std::vector<Grid2D> grids[4];
  std::vector<Grid2D*> slots[4];

  Batch(int n, int nc) {
    Rng rng(0xBA7C4);
    for (int role = 0; role < 4; ++role) {
      const int side = role < kCoarse ? n : nc;
      for (int k = 0; k < 2; ++k) {
        Grid2D g(side, 0.0);
        for (int i = 1; i < side - 1; ++i) {
          for (int j = 1; j < side - 1; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
        }
        grids[role].push_back(std::move(g));
      }
    }
    for (int role = 0; role < 4; ++role) {
      for (Grid2D& g : grids[role]) slots[role].push_back(&g);
    }
  }

  Batch(const Batch&) = delete;  // the slots point into this batch's grids

  std::span<Grid2D* const> mut(BatchRole role) const { return slots[role]; }
  std::span<const Grid2D* const> in(BatchRole role) const {
    return {slots[role].data(), slots[role].size()};
  }
};

TEST(Relax, EveryBatchedEntryRejectsAMalformedBatch) {
  // Every batched entry point throws InvalidArgument for each malformed
  // batch: a span of another size, a null slot, an iterate or rhs of the
  // wrong side, a coarse grid or correction of the wrong side, and an
  // operator (for interpolation, fine grids) of a side that is not
  // 2^k + 1.  Each case breaks one span the entry reads, and the
  // well-formed batch runs.
  const int n = 9;
  const int nc = coarse_size(n);
  grid::ScratchPool& scratch = pool();
  struct Entry {
    const char* name;
    bool reads_operator;
    std::vector<BatchRole> reads;
    std::function<void(const grid::StencilOp&, const Batch&)> run;
  };
  const Entry entries[] = {
      {"sor_sweep_multi",
       true,
       {kIterates, kRhs},
       [](const grid::StencilOp& op, const Batch& b) {
         sor_sweep_multi(op, b.mut(kIterates), b.in(kRhs), 1.15, sched());
       }},
      {"recurse_head",
       true,
       {kIterates, kRhs, kCoarse, kCorrections},
       [&](const grid::StencilOp& op, const Batch& b) {
         recurse_head(op, b.mut(kIterates), b.in(kRhs), RelaxKind::kSor, 1.15,
                      b.mut(kCoarse), b.mut(kCorrections), sched(), scratch,
                      {}, nullptr);
       }},
      {"recurse_tail",
       true,
       {kIterates, kRhs, kCorrections},
       [&](const grid::StencilOp& op, const Batch& b) {
         recurse_tail(op, b.in(kCorrections), b.mut(kIterates), b.in(kRhs),
                      RelaxKind::kSor, 1.15, sched(), scratch, {}, nullptr);
       }},
      {"restrict_residual_multi",
       true,
       {kIterates, kRhs, kCoarse},
       [](const grid::StencilOp& op, const Batch& b) {
         grid::restrict_residual_multi(op, b.in(kIterates), b.in(kRhs),
                                       b.mut(kCoarse), sched());
       }},
      {"restrict_residual_multi with corrections",
       true,
       {kIterates, kRhs, kCoarse, kCorrections},
       [](const grid::StencilOp& op, const Batch& b) {
         grid::restrict_residual_multi(op, b.in(kIterates), b.in(kRhs),
                                       b.mut(kCoarse), sched(), {},
                                       b.mut(kCorrections));
       }},
      {"interpolate_add_multi",
       false,
       {kIterates, kCorrections},
       [](const grid::StencilOp&, const Batch& b) {
         grid::interpolate_add_multi(b.in(kCorrections), b.mut(kIterates),
                                     sched());
       }},
      {"line_relax_sweep_multi",
       true,
       {kIterates, kRhs},
       [&](const grid::StencilOp& op, const Batch& b) {
         line_relax_sweep_multi(op, b.mut(kIterates), b.in(kRhs),
                                RelaxKind::kLineX, sched(), scratch);
       }},
  };
  const grid::StencilOp op = make_operator(n, OperatorFamily::kJumpCoefficient);
  for (const Entry& entry : entries) {
    SCOPED_TRACE(entry.name);
    {
      const Batch good(n, nc);
      EXPECT_NO_THROW(entry.run(op, good));
    }
    for (const BatchRole role : entry.reads) {
      SCOPED_TRACE("span " + std::to_string(role));
      Batch shorter(n, nc);
      shorter.slots[role].pop_back();
      EXPECT_THROW(entry.run(op, shorter), InvalidArgument);
      Batch null_slot(n, nc);
      null_slot.slots[role][1] = nullptr;
      EXPECT_THROW(entry.run(op, null_slot), InvalidArgument);
      // Fine grids take the coarse side and coarse grids the fine one.
      Batch wrong_side(n, nc);
      Grid2D other(role < kCoarse ? nc : n, 0.0);
      wrong_side.slots[role][1] = &other;
      EXPECT_THROW(entry.run(op, wrong_side), InvalidArgument);
    }
    // A default operator has side 0; every grid matches it, so only the
    // side rule fails.  Interpolation has no operator: its fine grids
    // take side 6.
    const int bad = entry.reads_operator ? 0 : 6;
    EXPECT_THROW(entry.run(grid::StencilOp(), Batch(bad, coarse_size(bad))),
                 InvalidArgument);
  }
}

// --------------------------------------------------------------- direct --

TEST(Direct, SolvesExactlyAtAllSmallSizes) {
  DirectSolver direct;
  for (int n : {3, 5, 9, 17, 33, 65}) {
    auto problem = test_problem(n, 20 + static_cast<std::uint64_t>(n));
    Grid2D x = problem.x0;
    direct.solve(problem.b, x);
    const double e0 = grid::norm2_interior(problem.b, sched()) + 1.0;
    EXPECT_LE(solution_error(problem, x) / e0, 1e-10) << "n=" << n;
  }
}

TEST(Direct, ValidatesInputSizes) {
  DirectSolver direct;
  Grid2D b(9, 0.0), x(17, 0.0);
  EXPECT_THROW(direct.solve(b, x), InvalidArgument);
  Grid2D bad(6, 0.0);
  EXPECT_THROW(direct.solve(bad, bad), InvalidArgument);
}

// ------------------------------------------------------------- multigrid --

TEST(Multigrid, VCycleContractsErrorQuickly) {
  auto problem = test_problem(65, 50);
  const grid::StencilHierarchy ops = poisson_ladder(65);
  Grid2D x = problem.x0;
  DirectSolver direct;
  const double e0 = solution_error(problem, x);
  vcycle(ops, x, problem.b, VCycleOptions{}, sched(), direct, pool());
  const double e1 = solution_error(problem, x);
  // A 1-pre/1-post SOR(1.15) V-cycle contracts 2-D Poisson error by well
  // over 2× per cycle; typical factors are ~10×.
  EXPECT_LT(e1, 0.5 * e0);
  vcycle(ops, x, problem.b, VCycleOptions{}, sched(), direct, pool());
  EXPECT_LT(solution_error(problem, x), 0.5 * e1);
}

TEST(Multigrid, VCycleConvergesToHighAccuracy) {
  auto problem = test_problem(33, 51, InputDistribution::kBiased);
  const grid::StencilHierarchy ops = poisson_ladder(33);
  Grid2D x = problem.x0;
  DirectSolver direct;
  const double e0 = solution_error(problem, x);
  for (int c = 0; c < 30; ++c) {
    vcycle(ops, x, problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  EXPECT_LT(solution_error(problem, x), 1e-9 * e0);
}

TEST(Multigrid, FullMultigridPassContractsStrongly) {
  // A single FMG pass (coarse estimate + one V-cycle per level) must
  // contract the initial error substantially on both input distributions.
  for (auto dist :
       {InputDistribution::kUnbiased, InputDistribution::kBiased}) {
    auto problem = test_problem(65, 54, dist);
    DirectSolver direct;
    Grid2D x = problem.x0;
    const double e0 = solution_error(problem, x);
    full_multigrid(poisson_ladder(65), x, problem.b, VCycleOptions{}, sched(),
                   direct, pool());
    EXPECT_LT(solution_error(problem, x), 0.2 * e0)
        << "distribution " << to_string(dist);
  }
}

TEST(Multigrid, FullMultigridReachesTruncationLevelAccuracy) {
  // One FMG pass classically reduces the algebraic error to the order of
  // discretisation error; for our metric expect a large reduction factor.
  auto problem = test_problem(129, 55);
  DirectSolver direct;
  Grid2D x = problem.x0;
  const double e0 = solution_error(problem, x);
  full_multigrid(poisson_ladder(129), x, problem.b, VCycleOptions{}, sched(),
                 direct, pool());
  EXPECT_LT(solution_error(problem, x), 0.05 * e0);
}

TEST(Multigrid, BaseCaseGridIsSolvedDirectly) {
  auto problem = test_problem(3, 56);
  DirectSolver direct;
  Grid2D x = problem.x0;
  vcycle(poisson_ladder(3), x, problem.b, VCycleOptions{}, sched(), direct,
         pool());
  EXPECT_LE(solution_error(problem, x),
            1e-10 * (grid::norm2_interior(problem.b, sched()) + 1.0));
}

TEST(Multigrid, SizeMismatchThrows) {
  Grid2D x(9, 0.0), b(17, 0.0);
  DirectSolver direct;
  const grid::StencilHierarchy ops = poisson_ladder(9);
  EXPECT_THROW(vcycle(ops, x, b, VCycleOptions{}, sched(), direct, pool()),
               InvalidArgument);
  EXPECT_THROW(
      full_multigrid(ops, x, b, VCycleOptions{}, sched(), direct, pool()),
      InvalidArgument);
}

TEST(Multigrid, JacobiCyclesRunOnPoissonOnly) {
  // Weighted Jacobi keeps one body, the Poisson sweep the smoother
  // ablation runs: a Poisson ladder cycles with it, and any other
  // operator is rejected rather than relaxed by a kernel that no longer
  // exists.
  VCycleOptions options;
  options.relaxation = RelaxKind::kJacobi;
  DirectSolver direct;
  const int n = 33;
  auto problem = test_problem(n, 57);
  Grid2D smoothed = problem.x0;
  vcycle(poisson_ladder(n), smoothed, problem.b, options, sched(), direct,
         pool());
  EXPECT_LT(solution_error(problem, smoothed),
            solution_error(problem, problem.x0));

  const grid::StencilHierarchy jump(
      make_operator(n, OperatorFamily::kJumpCoefficient));
  Grid2D x = problem.x0;
  EXPECT_THROW(vcycle(jump, x, problem.b, options, sched(), direct, pool()),
               InvalidArgument);
  EXPECT_THROW(solve_reference_v(jump, x, problem.b, options, 3, nullptr,
                                 sched(), direct, pool()),
               InvalidArgument);
}

// ------------------------------------------------------------ reference --

TEST(Reference, IteratedSorStopsAtPredicate) {
  auto problem = test_problem(17, 60);
  fft::FastPoissonSolver oracle(17);
  Grid2D x_opt(17, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());

  Grid2D x = problem.x0;
  const auto outcome = solve_iterated_sor(
      grid::StencilOp::poisson(17), x, problem.b, omega_opt(17), 100000,
      [&](const Grid2D& state, int) {
        return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e3;
      },
      sched());
  EXPECT_TRUE(outcome.converged);
  EXPECT_GT(outcome.iterations, 1);
  EXPECT_GE(e0 / grid::norm2_diff_interior(x, x_opt, sched()), 1e3);
}

TEST(Reference, IteratedSorReportsNonConvergence) {
  auto problem = test_problem(33, 61);
  Grid2D x = problem.x0;
  const auto outcome = solve_iterated_sor(
      grid::StencilOp::poisson(33), x, problem.b, omega_opt(33), 3,
      [](const Grid2D&, int) { return false; }, sched());
  EXPECT_FALSE(outcome.converged);
  EXPECT_EQ(outcome.iterations, 3);
}

TEST(Reference, VCycleDriverConvergesToTarget) {
  auto problem = test_problem(65, 62);
  fft::FastPoissonSolver oracle(65);
  Grid2D x_opt(65, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());
  DirectSolver direct;
  Grid2D x = problem.x0;
  const auto outcome = solve_reference_v(
      poisson_ladder(65), x, problem.b, VCycleOptions{}, 200,
      [&](const Grid2D& state, int) {
        return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e9;
      },
      sched(), direct, pool());
  EXPECT_TRUE(outcome.converged);
  EXPECT_LT(outcome.iterations, 40);
}

TEST(Reference, FmgDriverNeedsNoMoreCyclesThanV) {
  auto problem = test_problem(65, 63, InputDistribution::kBiased);
  fft::FastPoissonSolver oracle(65);
  Grid2D x_opt(65, 0.0);
  oracle.solve(problem.b, problem.x0, x_opt, sched());
  const double e0 = grid::norm2_diff_interior(problem.x0, x_opt, sched());
  DirectSolver direct;
  const auto stop = [&](const Grid2D& state, int) {
    return e0 / grid::norm2_diff_interior(state, x_opt, sched()) >= 1e5;
  };
  const grid::StencilHierarchy ops = poisson_ladder(65);
  Grid2D xv = problem.x0;
  const auto v = solve_reference_v(ops, xv, problem.b, VCycleOptions{}, 200,
                                   stop, sched(), direct, pool());
  Grid2D xf = problem.x0;
  const auto f = solve_reference_fmg(ops, xf, problem.b, VCycleOptions{}, 200,
                                     stop, sched(), direct, pool());
  EXPECT_TRUE(v.converged);
  EXPECT_TRUE(f.converged);
  EXPECT_LE(f.iterations, v.iterations);
}

}  // namespace
}  // namespace pbmg::solvers
