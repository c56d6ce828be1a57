// Galerkin RAP coarsening and 9-point operator tests: the coarse operator
// must equal the explicitly assembled triple product R·A·P entry for
// entry, RAP of the Poisson fast path must reproduce the standard 9-point
// coarse Poisson stencil (edges ½, corners ¼, centre 3 in coupling
// units), 9-point operators must stay symmetric positive definite down
// the ladder, the θ = 45° rotated-anisotropy family must converge on the
// RAP ladder, and the restriction-robustness fixes (always-on degenerate
// edge-pair guard, coarsening serialization with missing ⇒ legacy) are
// pinned here.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"
#include "linalg/poisson_assembly.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "test_problems.h"
#include "tune/accuracy.h"
#include "tune/table.h"

namespace pbmg {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "rap-test";
    p.threads = 4;
    p.grain_rows = 2;
    return EngineOptions{p, {}, {}};
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

using Dense = std::vector<double>;  // row-major

/// Full-weighting restriction R over interior unknowns:
/// (nc−2)² × (n−2)², R(C,p) = [1 2 1; 2 4 2; 1 2 1]/16 around p = 2C.
Dense dense_restriction(int n) {
  const int nc = coarse_size(n);
  const int mf = n - 2;
  const int mcs = nc - 2;
  Dense r(static_cast<std::size_t>(mcs * mcs) *
          static_cast<std::size_t>(mf * mf));
  const double w[3] = {0.25, 0.5, 0.25};
  for (int ci = 1; ci <= mcs; ++ci) {
    for (int cj = 1; cj <= mcs; ++cj) {
      const int row = (ci - 1) * mcs + (cj - 1);
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          const int pi = 2 * ci + di;
          const int pj = 2 * cj + dj;
          if (pi < 1 || pi > mf || pj < 1 || pj > mf) continue;
          const int col = (pi - 1) * mf + (pj - 1);
          r[static_cast<std::size_t>(row) * (mf * mf) + col] =
              w[di + 1] * w[dj + 1];
        }
      }
    }
  }
  return r;
}

/// Bilinear interpolation P over interior unknowns: (n−2)² × (nc−2)²,
/// P(q,D) = 2^-(|q−2D|₁) for |q − 2D|∞ <= 1.
Dense dense_interpolation(int n) {
  const int nc = coarse_size(n);
  const int mf = n - 2;
  const int mcs = nc - 2;
  Dense p(static_cast<std::size_t>(mf * mf) *
          static_cast<std::size_t>(mcs * mcs));
  for (int qi = 1; qi <= mf; ++qi) {
    for (int qj = 1; qj <= mf; ++qj) {
      const int row = (qi - 1) * mf + (qj - 1);
      for (int di = 1; di <= mcs; ++di) {
        for (int dj = 1; dj <= mcs; ++dj) {
          const int dx = qi - 2 * di;
          const int dy = qj - 2 * dj;
          if (std::abs(dx) > 1 || std::abs(dy) > 1) continue;
          const int col = (di - 1) * mcs + (dj - 1);
          p[static_cast<std::size_t>(row) * (mcs * mcs) + col] =
              1.0 / static_cast<double>(1 << (std::abs(dx) + std::abs(dy)));
        }
      }
    }
  }
  return p;
}

Dense matmul(const Dense& a, int ar, int ac, const Dense& b, int bc) {
  Dense out(static_cast<std::size_t>(ar) * static_cast<std::size_t>(bc), 0.0);
  for (int i = 0; i < ar; ++i) {
    for (int k = 0; k < ac; ++k) {
      const double v = a[static_cast<std::size_t>(i) * ac + k];
      if (v == 0.0) continue;
      for (int j = 0; j < bc; ++j) {
        out[static_cast<std::size_t>(i) * bc + j] +=
            v * b[static_cast<std::size_t>(k) * bc + j];
      }
    }
  }
  return out;
}

void expect_matches_triple_product(const grid::StencilOp& fine,
                                   const std::string& label) {
  const int n = fine.n();
  const int nc = coarse_size(n);
  const int mf = n - 2;
  const int mcs = nc - 2;
  const Dense a = linalg::assemble_stencil_band(fine).to_dense();
  const Dense r = dense_restriction(n);
  const Dense p = dense_interpolation(n);
  const Dense ap = matmul(a, mf * mf, mf * mf, p, mcs * mcs);
  const Dense rap = matmul(r, mcs * mcs, mf * mf, ap, mcs * mcs);

  const grid::StencilOp coarse = fine.galerkin_coarse();
  ASSERT_TRUE(coarse.is_nine_point()) << label;
  const Dense got = linalg::assemble_stencil_band(coarse).to_dense();
  ASSERT_EQ(got.size(), rap.size()) << label;
  double scale = 0.0;
  for (const double v : rap) scale = std::max(scale, std::abs(v));
  for (int i = 0; i < mcs * mcs; ++i) {
    for (int j = 0; j < mcs * mcs; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * (mcs * mcs) + j;
      // Exact in exact arithmetic; 1e-12·scale absorbs the different
      // summation orders of the local stencil accumulation vs the dense
      // triple product.
      EXPECT_NEAR(got[idx], rap[idx], 1e-12 * scale)
          << label << " entry (" << i << "," << j << ")";
    }
  }
}

TEST(GalerkinRap, FivePointVariableOperatorMatchesExplicitTripleProduct) {
  // A genuinely variable 5-point operator (smooth coefficients + jump
  // contrast + reaction term) at n = 9: the kernel-level coarse operator
  // must be the matrix R·A·P, entry for entry.
  const int n = 9;
  const grid::StencilOp op = grid::StencilOp::from_coefficients(
      n,
      [](double x, double y) {
        return 1.0 + 0.5 * std::sin(3.0 * x) * std::cos(2.0 * y) +
               (x > 0.5 ? 5.0 : 0.0);
      },
      [](double x, double y) { return 2.0 + x + 0.25 * y; }, 0.75);
  expect_matches_triple_product(op, "variable-5pt");
}

TEST(GalerkinRap, NinePointTensorOperatorMatchesExplicitTripleProduct) {
  const int n = 9;
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kAnisoTheta45);
  ASSERT_TRUE(op.is_nine_point());
  expect_matches_triple_product(op, "tensor-9pt");
}

TEST(GalerkinRap, SecondCoarseningMatchesTripleProductToo) {
  // RAP of a RAP operator (the generic 9-point → 9-point path a deep
  // ladder exercises).
  const grid::StencilOp fine =
      make_operator(17, OperatorFamily::kAnisoTheta30);
  expect_matches_triple_product(fine.galerkin_coarse(), "rap-of-rap");
}

TEST(GalerkinRap, PoissonCoarsensToTheStandardNinePointStencil) {
  // The classical result: full-weighting/bilinear Galerkin coarsening of
  // the 5-point Laplacian is the 9-point stencil
  //   (1/h_c²)·[[-¼,-½,-¼],[-½,3,-½],[-¼,-½,-¼]]
  // away from the boundary — edge couplings ½, corner couplings ¼,
  // centre 3 in this repo's coupling units.
  const int n = 17;
  const grid::StencilOp coarse = grid::StencilOp::poisson(n).galerkin_coarse();
  ASSERT_TRUE(coarse.is_nine_point());
  ASSERT_FALSE(coarse.is_poisson());
  const int nc = coarse.n();
  ASSERT_EQ(nc, coarse_size(n));
  for (int i = 2; i < nc - 3; ++i) {
    for (int j = 2; j < nc - 3; ++j) {
      EXPECT_NEAR(coarse.ax(i, j), 0.5, 1e-13) << i << "," << j;
      EXPECT_NEAR(coarse.ay(i, j), 0.5, 1e-13) << i << "," << j;
      EXPECT_NEAR(coarse.ase(i, j), 0.25, 1e-13) << i << "," << j;
      EXPECT_NEAR(coarse.asw(i, j), 0.25, 1e-13) << i << "," << j;
      EXPECT_NEAR(coarse.center(i, j), 3.0, 1e-13) << i << "," << j;
    }
  }
  // The averaged path still short-circuits to the fast path, untouched.
  EXPECT_TRUE(grid::StencilOp::poisson(n).restricted().is_poisson());
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GalerkinRap, SchedulerBuiltLaddersMatchSerialBitwise) {
  // The parallel build writes each shared coupling once, from the node the
  // serial row-major loop writes it from last, so the ladder must be
  // memcmp-identical on every thread count.  With grain_rows 8 and n >=
  // 257 the top coarsenings run past the 16,384-cell sequential cutoff,
  // so leaves meet at edges (where TSan races them) instead of running
  // inline on the caller.
  std::vector<std::unique_ptr<Engine>> engines;
  for (const int threads : {1, 2, 4}) {
    rt::MachineProfile p;
    p.name = "rap-parallel";
    p.threads = threads;
    p.grain_rows = 8;
    engines.push_back(std::make_unique<Engine>(p));
  }
  for (const OperatorFamily family :
       {OperatorFamily::kPoisson, OperatorFamily::kJumpCoefficient,
        OperatorFamily::kAnisoTheta45, OperatorFamily::kSmoothVariable}) {
    for (const int n : {257, 513}) {
      const grid::StencilOp fine = make_operator(n, family);
      const grid::StencilHierarchy serial(fine, grid::Coarsening::kRap);
      for (const auto& engine : engines) {
        const grid::StencilHierarchy parallel(fine, grid::Coarsening::kRap,
                                              engine->scheduler());
        ASSERT_EQ(parallel.top_level(), serial.top_level());
        for (int level = serial.top_level() - 1; level >= 1; --level) {
          const grid::StencilOp& a = serial.at(level);
          const grid::StencilOp& b = parallel.at(level);
          const std::string where =
              to_string(family) + " n=" + std::to_string(n) + " threads=" +
              std::to_string(engine->scheduler().thread_count()) +
              " level " + std::to_string(level);
          EXPECT_TRUE(bitwise_equal(a.ax_grid(), b.ax_grid())) << where;
          EXPECT_TRUE(bitwise_equal(a.ay_grid(), b.ay_grid())) << where;
          EXPECT_TRUE(bitwise_equal(a.ase_grid(), b.ase_grid())) << where;
          EXPECT_TRUE(bitwise_equal(a.asw_grid(), b.asw_grid())) << where;
          EXPECT_TRUE(bitwise_equal(a.center_grid(), b.center_grid()))
              << where;
        }
      }
    }
  }
}

TEST(GalerkinRap, LadderStaysSymmetricPositiveDefinite) {
  // RAP of an SPD operator with full-rank P is SPD (R = ¼·Pᵀ here), so
  // banded Cholesky must factor every level of every family's RAP
  // ladder without meeting a non-positive pivot.
  for (const OperatorFamily family : kAllOperatorFamilies) {
    const int n = 33;
    const grid::StencilHierarchy ladder(make_operator(n, family),
                                        grid::Coarsening::kRap);
    for (int level = ladder.top_level(); level >= 1; --level) {
      linalg::BandMatrix a = linalg::assemble_stencil_band(ladder.at(level));
      EXPECT_NO_THROW(linalg::band_cholesky_factor(a))
          << to_string(family) << " level " << level;
    }
  }
}

TEST(GalerkinRap, NinePointApplyIsSymmetric) {
  // <A u, v> == <u, A v> on zero-ring grids: every coupling (edges and
  // corners) is shared by its two endpoints.
  const int n = 17;
  for (const auto mode :
       {grid::Coarsening::kAverage, grid::Coarsening::kRap}) {
    const grid::StencilOp op =
        make_operator(n, OperatorFamily::kAnisoTheta45).coarsened(mode);
    Rng rng(77);
    Grid2D u(op.n(), 0.0), v(op.n(), 0.0);
    for (int i = 1; i < op.n() - 1; ++i) {
      for (int j = 1; j < op.n() - 1; ++j) {
        u(i, j) = rng.uniform(-1.0, 1.0);
        v(i, j) = rng.uniform(-1.0, 1.0);
      }
    }
    Grid2D au(op.n(), 0.0), av(op.n(), 0.0);
    grid::apply_op(op, u, au, sched());
    grid::apply_op(op, v, av, sched());
    double lhs = 0.0, rhs = 0.0;
    for (int i = 1; i < op.n() - 1; ++i) {
      for (int j = 1; j < op.n() - 1; ++j) {
        lhs += au(i, j) * v(i, j);
        rhs += u(i, j) * av(i, j);
      }
    }
    EXPECT_NEAR(lhs, rhs, 1e-9 * (std::abs(lhs) + std::abs(rhs) + 1.0))
        << grid::to_string(mode);
  }
}

TEST(GalerkinRap, AveragedCoarseningOfNinePointDropsCorners) {
  // restricted() on a 9-point operator is the documented 5-point
  // approximation: edge averaging applies, corner couplings vanish —
  // the fig20 baseline arm's ladder.
  const grid::StencilOp fine = make_operator(17, OperatorFamily::kAnisoTheta45);
  const grid::StencilOp coarse = fine.restricted();
  EXPECT_FALSE(coarse.is_nine_point());
  EXPECT_EQ(coarse.n(), coarse_size(17));
  for (int i = 1; i < coarse.n() - 1; ++i) {
    for (int j = 1; j < coarse.n() - 1; ++j) {
      EXPECT_EQ(coarse.ase(i, j), 0.0);
      EXPECT_EQ(coarse.asw(i, j), 0.0);
      EXPECT_GT(coarse.diag(i, j), 0.0);
    }
  }
}

// ------------------------------------------------------- 9-point sweeps --

TEST(NinePointRelax, ZebraLineSweepSolvesSecondParityRowsExactly) {
  // After a full x-line zebra sweep (odd rows first, then even rows) the
  // even interior rows were solved against their final neighbours — the
  // odd rows, frozen by parity — so their residual rows must vanish to
  // rounding.  This is the 9-point analogue of the 5-point exactness pin
  // in line_relax_test, with the corner couplings folded into the RHS.
  const int n = 17;
  const grid::StencilOp op = make_operator(n, OperatorFamily::kAnisoTheta45);
  ASSERT_TRUE(op.is_nine_point());
  const auto inst = testing::make_family_instance(
      OperatorFamily::kAnisoTheta45, n, 515, sched());
  Grid2D x = inst.problem.x0;
  solvers::line_relax_sweep(op, x, inst.problem.b, solvers::RelaxKind::kLineX,
                            sched(), engine().scratch());
  Grid2D r(n, 0.0);
  grid::residual_op(op, x, inst.problem.b, r, sched());
  const double scale = grid::max_abs_interior(inst.problem.b, sched()) + 1.0;
  for (int i = 2; i < n - 1; i += 2) {
    for (int j = 1; j < n - 1; ++j) {
      EXPECT_LE(std::abs(r(i, j)), 1e-10 * scale) << "row " << i;
    }
  }
}

TEST(NinePointRelax, FourColorSorReducesError) {
  // The 9-point SOR sweep uses four colours (diagonal neighbours share
  // red-black parity); it must still behave like a convergent smoother.
  const int n = 33;
  const grid::StencilOp op = make_operator(n, OperatorFamily::kAnisoTheta30);
  const auto inst = testing::make_family_instance(
      OperatorFamily::kAnisoTheta30, n, 516, sched());
  if (inst.initial_error == 0.0) GTEST_SKIP();
  Grid2D x = inst.problem.x0;
  for (int s = 0; s < 2 * n; ++s) {
    solvers::sor_sweep(op, x, inst.problem.b, 1.15, sched());
  }
  EXPECT_LT(testing::error_against_exact(inst, x, sched()),
            0.5 * inst.initial_error);
}

TEST(NinePointRelax, Theta45VCycleContractsOnTheRapLadder) {
  // The acceptance scenario: θ = 45°, ε = 10⁻².  On the Galerkin ladder
  // with alternating zebra lines the V-cycle must make steady progress —
  // a 10⁶ error reduction within 40 cycles (≈0.7/cycle; measured rates
  // are better, the bound absorbs instance variation).
  const int n = 65;
  const auto inst = testing::make_family_instance(
      OperatorFamily::kAnisoTheta45, n, 517, sched());
  ASSERT_GT(inst.initial_error, 0.0);
  const grid::StencilHierarchy ladder(
      make_operator(n, OperatorFamily::kAnisoTheta45), grid::Coarsening::kRap);
  solvers::VCycleOptions options;
  options.relaxation = solvers::RelaxKind::kLineZebraAlt;
  Grid2D x = inst.problem.x0;
  int cycles = 0;
  double err = inst.initial_error;
  while (cycles < 40 && err > 1e-6 * inst.initial_error) {
    solvers::vcycle(ladder, x, inst.problem.b, options, sched(),
                    engine().direct(), engine().scratch());
    ++cycles;
    err = testing::error_against_exact(inst, x, sched());
  }
  EXPECT_LE(err, 1e-6 * inst.initial_error)
      << "stalled at relative error " << err / inst.initial_error << " after "
      << cycles << " cycles";
}

// ------------------------------------------------- restriction robustness --

TEST(RestrictionRobustness, DegenerateEdgePairThrowsInEveryBuild) {
  // series() used to guard a1 + a2 > 0 only under PBMG_NUM_ASSERT: in
  // plain Release a degenerate pair produced an Inf/NaN coarse
  // coefficient that propagated silently down the whole hierarchy.  The
  // guard is now an always-on PBMG_CHECK.  Under PBMG_ASSERTIONS the
  // construction itself already rejects the zero edge; either way the
  // sequence must throw instead of yielding a poisoned operator.
  const int n = 9;
  Grid2D ax(n, 1.0);
  Grid2D ay(n, 1.0);
  ax(2, 2) = 0.0;  // one coarse x-path sees the pair (0, 0) → sum == 0
  ax(2, 3) = 0.0;
  EXPECT_THROW(
      {
        const grid::StencilOp op =
            grid::StencilOp::variable(std::move(ax), std::move(ay), 0.0);
        (void)op.restricted();
      },
      Error);
}

// --------------------------------------------------- table serialization --

TEST(CoarseningSerialization, RoundTripsAndMissingFieldReadsAsLegacy) {
  tune::TunedConfig config(tune::paper_accuracies(), 3);
  for (int level = 2; level <= 3; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      tune::VEntry v;
      v.choice.kind = tune::VKind::kRecurse;
      v.choice.sub_accuracy = 0;
      v.choice.iterations = 2;
      v.choice.coarsening =
          i % 2 == 0 ? grid::Coarsening::kRap : grid::Coarsening::kAverage;
      v.trained = true;
      config.v_entry(level, i) = v;
      tune::FmgEntry f;
      f.choice.kind = tune::FmgKind::kEstimateThenRecurse;
      f.choice.estimate_accuracy = 0;
      f.choice.solve_accuracy = 0;
      f.choice.iterations = 1;
      f.choice.coarsening = grid::Coarsening::kRap;
      f.trained = true;
      config.fmg_entry(level, i) = f;
    }
  }
  const std::string dumped = config.to_json().dump(2);
  const tune::TunedConfig loaded =
      tune::TunedConfig::from_json(Json::parse(dumped));
  EXPECT_EQ(loaded.to_json().dump(2), dumped);
  EXPECT_EQ(loaded.v_entry(2, 0).choice.coarsening, grid::Coarsening::kRap);
  EXPECT_EQ(loaded.v_entry(2, 1).choice.coarsening,
            grid::Coarsening::kAverage);

  // Documents written before the coarsening axis carry no such field:
  // renaming the key simulates them, and every cell must read as the
  // legacy averaged ladder.
  std::string legacy = dumped;
  const std::string needle = "\"coarsening\"";
  for (std::size_t pos = legacy.find(needle); pos != std::string::npos;
       pos = legacy.find(needle, pos + 1)) {
    legacy.replace(pos, needle.size(), "\"coarsening_unknown_key\"");
  }
  const tune::TunedConfig pre_rap =
      tune::TunedConfig::from_json(Json::parse(legacy));
  for (int level = 2; level <= 3; ++level) {
    for (int i = 0; i < pre_rap.accuracy_count(); ++i) {
      EXPECT_EQ(pre_rap.v_entry(level, i).choice.coarsening,
                grid::Coarsening::kAverage);
      EXPECT_EQ(pre_rap.fmg_entry(level, i).choice.coarsening,
                grid::Coarsening::kAverage);
    }
  }
}

}  // namespace
}  // namespace pbmg
