// Parameterized convergence sweeps across solvers, sizes, and input
// distributions: every solver must converge on every distribution, V-cycle
// contraction factors must be size-independent (the defining property of
// multigrid), and relaxation behaviour must respond to ω as theory says.

#include <cmath>

#include <gtest/gtest.h>

#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/rng.h"
#include "test_problems.h"
#include "tune/accuracy.h"

namespace pbmg::solvers {
namespace {

rt::Scheduler& sched() {
  static rt::Scheduler instance([] {
    rt::MachineProfile p;
    p.name = "prop-solver";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

grid::ScratchPool& pool() {
  static grid::ScratchPool instance;
  return instance;
}

inline std::string dist_label(int index) {
  switch (index) {
    case 0: return "unbiased";
    case 1: return "biased";
    default: return "pointsources";
  }
}

// Shared manufactured-problem helpers (tests/test_problems.h), bound to
// this suite's scheduler.
using Instance = testing::PoissonInstance;

Instance make_instance(int n, InputDistribution dist, std::uint64_t seed) {
  return testing::make_poisson_instance(n, dist, seed, sched());
}

double error_of(const Instance& inst, const Grid2D& x) {
  return grid::norm2_diff_interior(x, inst.exact, sched());
}

class SolverSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, SolverSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(17, 33, 65)),
    [](const auto& info) {
      return dist_label(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(SolverSweep, DirectSolvesEveryDistributionExactly) {
  const auto dist = static_cast<InputDistribution>(std::get<0>(GetParam()));
  const int n = std::get<1>(GetParam());
  const auto inst = make_instance(n, dist, 100);
  DirectSolver direct;
  Grid2D x = inst.problem.x0;
  direct.solve(inst.problem.b, x);
  EXPECT_LE(error_of(inst, x), 1e-9 * (inst.e0 + 1.0));
}

TEST_P(SolverSweep, SorConvergesOnEveryDistribution) {
  const auto dist = static_cast<InputDistribution>(std::get<0>(GetParam()));
  const int n = std::get<1>(GetParam());
  const auto inst = make_instance(n, dist, 200);
  if (inst.e0 == 0.0) GTEST_SKIP() << "degenerate zero instance";
  Grid2D x = inst.problem.x0;
  for (int s = 0; s < 12 * n; ++s) {
    sor_sweep(x, inst.problem.b, omega_opt(n), sched());
  }
  EXPECT_LE(error_of(inst, x), 1e-6 * inst.e0);
}

TEST_P(SolverSweep, VCycleConvergesOnEveryDistribution) {
  const auto dist = static_cast<InputDistribution>(std::get<0>(GetParam()));
  const int n = std::get<1>(GetParam());
  const auto inst = make_instance(n, dist, 300);
  if (inst.e0 == 0.0) GTEST_SKIP() << "degenerate zero instance";
  DirectSolver direct;
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = inst.problem.x0;
  for (int c = 0; c < 25; ++c) {
    vcycle(ops, x, inst.problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  EXPECT_LE(error_of(inst, x), 1e-8 * inst.e0);
}

TEST_P(SolverSweep, FullMultigridConvergesOnEveryDistribution) {
  const auto dist = static_cast<InputDistribution>(std::get<0>(GetParam()));
  const int n = std::get<1>(GetParam());
  const auto inst = make_instance(n, dist, 400);
  if (inst.e0 == 0.0) GTEST_SKIP() << "degenerate zero instance";
  DirectSolver direct;
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = inst.problem.x0;
  full_multigrid(ops, x, inst.problem.b, VCycleOptions{}, sched(), direct,
                 pool());
  for (int c = 0; c < 24; ++c) {
    vcycle(ops, x, inst.problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  EXPECT_LE(error_of(inst, x), 1e-8 * inst.e0);
}

// ------------------------------------------- stencil-aware relaxation --

constexpr int kFamilyCount =
    static_cast<int>(std::size(kAllOperatorFamilies));

class StencilRelaxSweep : public ::testing::TestWithParam<int> {
 protected:
  OperatorFamily family() const {
    return kAllOperatorFamilies[static_cast<std::size_t>(GetParam())];
  }
};

INSTANTIATE_TEST_SUITE_P(Families, StencilRelaxSweep,
                         ::testing::Range(0, kFamilyCount),
                         [](const auto& info) {
                           return testing::gtest_name(
                               to_string(kAllOperatorFamilies[
                                   static_cast<std::size_t>(info.param)]));
                         });

TEST_P(StencilRelaxSweep, SorWithTrueDiagonalReducesError) {
  // A convergent SOR sweep for an SPD system requires dividing by the
  // actual row diagonal; 2n sweeps must visibly reduce the error for
  // every family (full convergence is the V-cycle suite's job).
  const int n = 33;
  const grid::StencilOp op = make_operator(n, family());
  Rng rng(4100);
  const auto inst = tune::make_training_instance(
      op, InputDistribution::kUnbiased, rng, sched());
  if (inst.initial_error == 0.0) GTEST_SKIP() << "degenerate zero instance";
  Grid2D x = inst.problem.x0;
  for (int s = 0; s < 2 * n; ++s) {
    sor_sweep(op, x, inst.problem.b, 1.15, sched());
  }
  EXPECT_LT(grid::norm2_diff_interior(x, inst.x_opt, sched()),
            0.5 * inst.initial_error)
      << to_string(family());
}

double dot_interior(const Grid2D& a, const Grid2D& b) {
  double sum = 0.0;
  for (int i = 1; i < a.n() - 1; ++i) {
    for (int j = 1; j < a.n() - 1; ++j) sum += a(i, j) * b(i, j);
  }
  return sum;
}

/// Energy (A-)norm squared of the error of `x`: <e, A e> with
/// e = x − x_opt (zero Dirichlet ring: x carries x_opt's ring).
double error_energy(const grid::StencilOp& op,
                    const tune::TrainingInstance& inst, const Grid2D& x) {
  const int n = x.n();
  Grid2D e(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) e(i, j) = x(i, j) - inst.x_opt(i, j);
  }
  Grid2D ae(n, 0.0);
  grid::apply_op(op, e, ae, sched());
  return dot_interior(e, ae);
}

TEST_P(StencilRelaxSweep, LineRelaxationNeverIncreasesEnergyNorm) {
  // Each line update solves its block row of the SPD system exactly —
  // a block Gauss-Seidel step, which minimizes the energy norm over the
  // updated block and therefore can never increase <e, A e>.  This is
  // the property that makes line relaxation safe to mix into any cycle
  // the tuner composes.  Checked per sweep, cycling through all three
  // variants, with a 1e-12 relative slack for the two O(n²) rounding-
  // dominated energy evaluations.
  const int n = 33;
  const grid::StencilOp op = make_operator(n, family());
  Rng rng(4300);
  const auto inst = tune::make_training_instance(
      op, InputDistribution::kUnbiased, rng, sched());
  if (inst.initial_error == 0.0) GTEST_SKIP() << "degenerate zero instance";
  Grid2D x = inst.problem.x0;
  double energy = error_energy(op, inst, x);
  ASSERT_GT(energy, 0.0);
  const RelaxKind kinds[] = {RelaxKind::kLineX, RelaxKind::kLineY,
                             RelaxKind::kLineZebraAlt};
  for (int sweep = 0; sweep < 9; ++sweep) {
    const RelaxKind kind = kinds[sweep % 3];
    line_relax_sweep(op, x, inst.problem.b, kind, sched(), pool());
    const double next = error_energy(op, inst, x);
    EXPECT_LE(next, energy * (1.0 + 1e-12))
        << to_string(family()) << " sweep " << sweep << " ("
        << to_string(kind) << ")";
    energy = next;
  }
}

TEST(StencilRelaxProperty, LinePairBeatsTwoPointSweepsOnStrongAnisotropy) {
  // The quantitative motivation for the tuner's new axis: at 32:1 and
  // beyond, one x-line plus one y-line sweep must reduce the residual at
  // least as much as two point red-black SOR sweeps (equal sweep count,
  // and the line pair covers both directions).  At 1000:1 the margin is
  // orders of magnitude; at 32:1 it is comfortable but finite.
  for (const OperatorFamily family :
       {OperatorFamily::kAnisotropic, OperatorFamily::kAnisotropic1000}) {
    const int n = 65;
    const grid::StencilOp op = make_operator(n, family);
    Rng rng(4400);
    const auto inst = tune::make_training_instance(
        op, InputDistribution::kUnbiased, rng, sched());
    const auto residual_norm = [&](const Grid2D& x) {
      Grid2D r(n, 0.0);
      grid::residual_op(op, x, inst.problem.b, r, sched());
      return grid::norm2_interior(r, sched());
    };
    Grid2D lines = inst.problem.x0;
    line_relax_sweep(op, lines, inst.problem.b, RelaxKind::kLineX, sched(),
                     pool());
    line_relax_sweep(op, lines, inst.problem.b, RelaxKind::kLineY, sched(),
                     pool());
    Grid2D points = inst.problem.x0;
    sor_sweep(op, points, inst.problem.b, 1.15, sched());
    sor_sweep(op, points, inst.problem.b, 1.15, sched());
    EXPECT_LE(residual_norm(lines), residual_norm(points))
        << to_string(family);
  }
}

TEST(StencilRelaxFastPath, PoissonOpSweepsAreBitwiseIdenticalToLegacy) {
  // The op-aware sweeps must dispatch the Poisson fast path to the
  // original kernels, bit for bit — same state after any sweep count.
  const int n = 33;
  const grid::StencilOp op = grid::StencilOp::poisson(n);
  const auto inst = make_instance(n, InputDistribution::kUnbiased, 4300);
  Grid2D via_op = inst.problem.x0;
  Grid2D legacy = inst.problem.x0;
  for (int s = 0; s < 5; ++s) {
    sor_sweep(op, via_op, inst.problem.b, 1.15, sched());
    sor_sweep(legacy, inst.problem.b, 1.15, sched());
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(via_op(i, j), legacy(i, j)) << "sor at " << i << "," << j;
    }
  }
}

// ------------------------------------------------- contraction factors --

class ContractionSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, ContractionSweep,
                         ::testing::Values(33, 65, 129, 257),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

TEST_P(ContractionSweep, VCycleContractionIsSizeIndependent) {
  // The defining multigrid property: the per-cycle error contraction
  // factor stays bounded away from 1 uniformly in N.
  const int n = GetParam();
  const auto inst = make_instance(n, InputDistribution::kUnbiased, 500);
  DirectSolver direct;
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  Grid2D x = inst.problem.x0;
  // Skip the first cycles (transient), then measure the asymptotic rate.
  for (int c = 0; c < 3; ++c) {
    vcycle(ops, x, inst.problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  const double e_before = error_of(inst, x);
  for (int c = 0; c < 3; ++c) {
    vcycle(ops, x, inst.problem.b, VCycleOptions{}, sched(), direct, pool());
  }
  const double e_after = error_of(inst, x);
  const double rate = std::cbrt(e_after / e_before);
  EXPECT_LT(rate, 0.5) << "V-cycle contraction degraded at N=" << n;
}

TEST_P(ContractionSweep, SorContractionDegradesWithSize) {
  // Counterpoint: SOR's per-sweep contraction approaches 1 as N grows
  // (the O(N) iteration count the paper's complexity table quotes).
  const int n = GetParam();
  if (n > 129) GTEST_SKIP() << "slow; covered by smaller sizes";
  const auto inst = make_instance(n, InputDistribution::kUnbiased, 600);
  Grid2D x = inst.problem.x0;
  for (int s = 0; s < n; ++s) {
    sor_sweep(x, inst.problem.b, omega_opt(n), sched());
  }
  const double e_mid = error_of(inst, x);
  for (int s = 0; s < n; ++s) {
    sor_sweep(x, inst.problem.b, omega_opt(n), sched());
  }
  const double e_end = error_of(inst, x);
  const double per_sweep = std::pow(e_end / e_mid, 1.0 / n);
  // Must still converge, but noticeably slower than the V-cycle's rate.
  EXPECT_LT(per_sweep, 1.0);
  EXPECT_GT(per_sweep, 0.5);
}

// ------------------------------------------------------------- omegas --

class OmegaSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Weights, OmegaSweep,
                         ::testing::Values(0.8, 1.0, 1.15, 1.5),
                         [](const auto& info) {
                           return "w" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST_P(OmegaSweep, SorConvergesForStableWeights) {
  // SOR converges for 0 < ω < 2 on SPD systems; all tested weights must
  // reduce the error.
  const double omega = GetParam();
  const auto inst = make_instance(33, InputDistribution::kUnbiased, 700);
  Grid2D x = inst.problem.x0;
  for (int s = 0; s < 200; ++s) {
    sor_sweep(x, inst.problem.b, omega, sched());
  }
  EXPECT_LT(error_of(inst, x), 0.5 * inst.e0) << "omega=" << omega;
}

TEST(OmegaOptimality, OptimalOmegaBeatsNeighbours) {
  // ω_opt minimises the SOR spectral radius: at a fixed sweep budget it
  // should beat clearly smaller and clearly larger weights.
  const int n = 65;
  const auto inst = make_instance(n, InputDistribution::kUnbiased, 800);
  const double w_opt = omega_opt(n);
  const auto error_after = [&](double omega) {
    Grid2D x = inst.problem.x0;
    for (int s = 0; s < 2 * n; ++s) {
      sor_sweep(x, inst.problem.b, omega, sched());
    }
    return error_of(inst, x);
  };
  const double at_opt = error_after(w_opt);
  EXPECT_LT(at_opt, error_after(1.0));
  EXPECT_LT(at_opt, error_after(std::min(1.99, w_opt + 0.15)));
}

}  // namespace
}  // namespace pbmg::solvers
