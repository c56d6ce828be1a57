// Tests for the grid substrate: Grid2D semantics, level math, the 5-point
// operator and residual, transfer operators, norms, the scratch-grid pool
// (reuse/trim/stats), and the paper's input distributions.  The norms
// include max_abs_interior's NaN rule: a NaN interior cell reads NaN.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "grid/grid2d.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/scratch.h"
#include "runtime/scheduler.h"
#include "support/error.h"
#include "support/rng.h"

namespace pbmg {
namespace {

rt::Scheduler& sched() {
  static rt::Scheduler instance([] {
    rt::MachineProfile p;
    p.name = "grid-test";
    p.threads = 4;
    p.grain_rows = 2;
    return p;
  }());
  return instance;
}

// ---------------------------------------------------------- ScratchPool --

TEST(ScratchPool, ReusesReleasedGridsAndCountsHits) {
  grid::ScratchPool pool;
  { auto lease = pool.acquire(17); }  // miss: fresh allocation
  EXPECT_EQ(pool.pooled(), 1u);
  { auto lease = pool.acquire(17); }  // hit: recycled
  { auto lease = pool.acquire(33); }  // miss: different size
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_NEAR(stats.hit_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(stats.pooled_grids, 2u);
  EXPECT_EQ(stats.pooled_bytes, (17u * 17u + 33u * 33u) * sizeof(double));
}

TEST(ScratchPool, ConcurrentLeasesOfOneSizeAreDistinctGrids) {
  grid::ScratchPool pool;
  auto a = pool.acquire(9);
  auto b = pool.acquire(9);
  EXPECT_NE(&a.get(), &b.get());
  a.get()(1, 1) = 1.0;
  b.get()(1, 1) = 2.0;
  EXPECT_EQ(a.get()(1, 1), 1.0);
}

TEST(ScratchPool, TrimFreesPooledBytesButKeepsCounters) {
  grid::ScratchPool pool;
  { auto lease = pool.acquire(17); }
  { auto lease = pool.acquire(33); }
  const std::size_t expected = (17u * 17u + 33u * 33u) * sizeof(double);
  EXPECT_EQ(pool.trim(), expected);
  EXPECT_EQ(pool.pooled(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2);  // counters survive the trim
  EXPECT_EQ(stats.trims, 1);
  EXPECT_EQ(stats.pooled_bytes, 0u);
  EXPECT_EQ(stats.high_water_bytes, expected);  // high water is sticky
  // Trimming an empty pool frees nothing but still counts: trims counts
  // CALLS, matching ServiceStats::trims, so pool- and service-level trim
  // telemetry agree instead of silently diverging on no-op trims.
  EXPECT_EQ(pool.trim(), 0u);
  EXPECT_EQ(pool.stats().trims, 2);
  // The pool keeps working after a trim.
  { auto lease = pool.acquire(17); }
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(ScratchPool, HighWaterTracksPeakNotCurrent) {
  grid::ScratchPool pool;
  {
    auto a = pool.acquire(9);
    auto b = pool.acquire(9);
    auto c = pool.acquire(9);
  }  // all three released: peak pooled = 3 grids
  const std::size_t grid_bytes = 9u * 9u * sizeof(double);
  EXPECT_EQ(pool.stats().high_water_bytes, 3 * grid_bytes);
  { auto lease = pool.acquire(9); }  // pooled dips to 2 then back to 3
  EXPECT_EQ(pool.stats().high_water_bytes, 3 * grid_bytes);
}

TEST(ScratchPool, ClearResetsCountersAndFreesGrids) {
  grid::ScratchPool pool;
  { auto lease = pool.acquire(17); }
  pool.clear();
  EXPECT_EQ(pool.pooled(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 0);
  EXPECT_EQ(stats.high_water_bytes, 0u);
}

// --------------------------------------------------------------- Grid2D --

TEST(Grid2D, ConstructionAndIndexing) {
  Grid2D g(5, 1.5);
  EXPECT_EQ(g.n(), 5);
  EXPECT_EQ(g.size(), 25u);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.5);
  g(2, 3) = -2.0;
  EXPECT_DOUBLE_EQ(g.at(2, 3), -2.0);
  EXPECT_THROW(g.at(5, 0), InvalidArgument);
  EXPECT_THROW(g.at(0, -1), InvalidArgument);
}

TEST(Grid2D, FillInteriorLeavesRing) {
  Grid2D g(5, 7.0);
  g.fill_interior(0.0);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const bool ring = i == 0 || j == 0 || i == 4 || j == 4;
      EXPECT_DOUBLE_EQ(g(i, j), ring ? 7.0 : 0.0);
    }
  }
}

TEST(Grid2D, CopyBoundaryFrom) {
  Grid2D src(5, 0.0), dst(5, 0.0);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) src(i, j) = i * 10.0 + j;
  }
  dst.copy_boundary_from(src);
  EXPECT_DOUBLE_EQ(dst(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(dst(4, 1), 41.0);
  EXPECT_DOUBLE_EQ(dst(2, 0), 20.0);
  EXPECT_DOUBLE_EQ(dst(2, 4), 24.0);
  EXPECT_DOUBLE_EQ(dst(2, 2), 0.0);  // interior untouched
  Grid2D wrong(3, 0.0);
  EXPECT_THROW(wrong.copy_boundary_from(src), InvalidArgument);
}

TEST(Grid2D, SwapExchangesStorage) {
  Grid2D a(3, 1.0), b(5, 2.0);
  a.swap(b);
  EXPECT_EQ(a.n(), 5);
  EXPECT_EQ(b.n(), 3);
  EXPECT_DOUBLE_EQ(a(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 1.0);
}

// ---------------------------------------------------------------- level --

TEST(Level, SizeAndLevelRoundTrip) {
  for (int k = 1; k <= 12; ++k) {
    EXPECT_EQ(level_of_size(size_of_level(k)), k);
  }
  EXPECT_EQ(size_of_level(1), 3);
  EXPECT_EQ(size_of_level(5), 33);
}

TEST(Level, RejectsInvalidSizes) {
  EXPECT_THROW(level_of_size(4), InvalidArgument);
  EXPECT_THROW(level_of_size(2), InvalidArgument);
  EXPECT_FALSE(is_valid_grid_size(6));
  EXPECT_TRUE(is_valid_grid_size(9));
  EXPECT_FALSE(is_valid_grid_size(0));
}

TEST(Level, MeshAndCoarseSize) {
  EXPECT_DOUBLE_EQ(mesh_width(5), 0.25);
  EXPECT_EQ(coarse_size(9), 5);
  EXPECT_EQ(coarse_size(5), 3);
}

// ------------------------------------------------------------- grid_ops --

/// Brute-force 5-point operator for cross-validation.
void naive_apply(const Grid2D& x, Grid2D& out) {
  const int n = x.n();
  const double inv_h2 =
      static_cast<double>(n - 1) * static_cast<double>(n - 1);
  out.fill(0.0);
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      out(i, j) = (4 * x(i, j) - x(i - 1, j) - x(i + 1, j) - x(i, j - 1) -
                   x(i, j + 1)) *
                  inv_h2;
    }
  }
}

Grid2D random_grid(int n, std::uint64_t seed) {
  Rng rng(seed);
  Grid2D g(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  return g;
}

TEST(GridOps, ApplyPoissonMatchesNaive) {
  for (int n : {3, 5, 9, 17, 33}) {
    const Grid2D x = random_grid(n, 100 + static_cast<std::uint64_t>(n));
    Grid2D fast(n, 0.0), naive(n, 0.0);
    grid::apply_poisson(x, fast, sched());
    naive_apply(x, naive);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_NEAR(fast(i, j), naive(i, j), 1e-9 * (std::abs(naive(i, j)) + 1))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GridOps, ResidualIsZeroForExactSolve) {
  // If b = A·x then residual(x, b) must vanish.
  const int n = 17;
  const Grid2D x = random_grid(n, 7);
  Grid2D b(n, 0.0), r(n, 0.0);
  grid::apply_poisson(x, b, sched());
  grid::residual(x, b, r, sched());
  EXPECT_LE(grid::max_abs_interior(r, sched()),
            1e-6);  // inv_h2 amplifies rounding; scale-aware bound
}

TEST(GridOps, ResidualMatchesDefinition) {
  const int n = 9;
  const Grid2D x = random_grid(n, 8);
  const Grid2D b = random_grid(n, 9);
  Grid2D ax(n, 0.0), r(n, 0.0);
  grid::apply_poisson(x, ax, sched());
  grid::residual(x, b, r, sched());
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      ASSERT_NEAR(r(i, j), b(i, j) - ax(i, j), 1e-9 * (std::abs(ax(i, j)) + 1));
    }
  }
}

TEST(GridOps, RestrictionPreservesConstants) {
  // Full weighting of a constant interior (with matching ring) returns the
  // same constant at coarse interior points.
  const int n = 17;
  Grid2D fine(n, 3.25);
  Grid2D coarse(coarse_size(n), 0.0);
  grid::restrict_full_weighting(fine, coarse, sched());
  for (int i = 1; i < coarse.n() - 1; ++i) {
    for (int j = 1; j < coarse.n() - 1; ++j) {
      ASSERT_NEAR(coarse(i, j), 3.25, 1e-12);
    }
  }
}

TEST(GridOps, RestrictionStencilIsFullWeighting) {
  const int n = 9;
  Grid2D fine(n, 0.0);
  fine(4, 4) = 16.0;  // aligned with coarse point (2,2)
  Grid2D coarse(5, 0.0);
  grid::restrict_full_weighting(fine, coarse, sched());
  EXPECT_DOUBLE_EQ(coarse(2, 2), 4.0);   // centre weight 4/16
  EXPECT_DOUBLE_EQ(coarse(1, 2), 0.0);   // outside stencil
  fine.fill(0.0);
  fine(3, 4) = 16.0;  // edge-adjacent fine point
  grid::restrict_full_weighting(fine, coarse, sched());
  EXPECT_DOUBLE_EQ(coarse(1, 2), 2.0);  // weight 2/16 below
  EXPECT_DOUBLE_EQ(coarse(2, 2), 2.0);  // weight 2/16 above
}

TEST(GridOps, InjectionCopiesEvenPointsIncludingRing) {
  const int n = 9;
  Grid2D fine = random_grid(n, 11);
  Grid2D coarse(5, 0.0);
  grid::restrict_inject(fine, coarse, sched());
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      ASSERT_DOUBLE_EQ(coarse(i, j), fine(2 * i, 2 * j));
    }
  }
}

TEST(GridOps, InterpolationIsExactForBilinearFunctions) {
  // Bilinear interpolation reproduces functions u = a + bx + cy + dxy.
  const int nc = 5, nf = 9;
  Grid2D coarse(nc, 0.0), fine(nf, 0.0), expected(nf, 0.0);
  const auto u = [](double x, double y) {
    return 1.0 + 2.0 * x - 0.5 * y + 3.0 * x * y;
  };
  for (int i = 0; i < nc; ++i) {
    for (int j = 0; j < nc; ++j) {
      coarse(i, j) = u(j * mesh_width(nc), i * mesh_width(nc));
    }
  }
  for (int i = 0; i < nf; ++i) {
    for (int j = 0; j < nf; ++j) {
      expected(i, j) = u(j * mesh_width(nf), i * mesh_width(nf));
    }
  }
  grid::interpolate_assign(coarse, fine, sched());
  for (int i = 1; i < nf - 1; ++i) {
    for (int j = 1; j < nf - 1; ++j) {
      ASSERT_NEAR(fine(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(GridOps, InterpolateAddAccumulates) {
  const int nc = 3, nf = 5;
  Grid2D coarse(nc, 1.0);
  Grid2D fine(nf, 2.0);
  grid::interpolate_add(coarse, fine, sched());
  // Every interior fine point receives interpolated value 1 (constant
  // coarse grid including its ring).
  for (int i = 1; i < nf - 1; ++i) {
    for (int j = 1; j < nf - 1; ++j) {
      ASSERT_DOUBLE_EQ(fine(i, j), 3.0);
    }
  }
  // Ring untouched.
  EXPECT_DOUBLE_EQ(fine(0, 0), 2.0);
}

TEST(GridOps, TransferOperatorsSatisfyVariationalScaling) {
  // Full weighting R and bilinear interpolation P satisfy R = P^T / 4 in
  // 2-D: <R f, c> = <f, P c> / 4 for zero-ring grids.
  const int nf = 17, nc = 9;
  Grid2D f = random_grid(nf, 21);
  Grid2D c = random_grid(nc, 22);
  // Zero the rings so boundary terms vanish.
  for (int j = 0; j < nf; ++j) {
    f(0, j) = f(nf - 1, j) = 0.0;
  }
  for (int i = 0; i < nf; ++i) {
    f(i, 0) = f(i, nf - 1) = 0.0;
  }
  for (int j = 0; j < nc; ++j) {
    c(0, j) = c(nc - 1, j) = 0.0;
  }
  for (int i = 0; i < nc; ++i) {
    c(i, 0) = c(i, nc - 1) = 0.0;
  }
  Grid2D rf(nc, 0.0);
  grid::restrict_full_weighting(f, rf, sched());
  Grid2D pc(nf, 0.0);
  grid::interpolate_assign(c, pc, sched());
  double lhs = 0.0, rhs = 0.0;
  for (int i = 1; i < nc - 1; ++i) {
    for (int j = 1; j < nc - 1; ++j) lhs += rf(i, j) * c(i, j);
  }
  for (int i = 1; i < nf - 1; ++i) {
    for (int j = 1; j < nf - 1; ++j) rhs += f(i, j) * pc(i, j);
  }
  EXPECT_NEAR(lhs, rhs / 4.0, 1e-10 * (std::abs(lhs) + 1.0));
}

TEST(GridOps, NormsMatchSerialComputation) {
  const int n = 33;
  const Grid2D a = random_grid(n, 31);
  const Grid2D b = random_grid(n, 32);
  double ss = 0.0, sd = 0.0, mx = 0.0;
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      ss += a(i, j) * a(i, j);
      const double d = a(i, j) - b(i, j);
      sd += d * d;
      mx = std::max(mx, std::abs(a(i, j)));
    }
  }
  EXPECT_NEAR(grid::norm2_interior(a, sched()), std::sqrt(ss), 1e-12);
  EXPECT_NEAR(grid::norm2_diff_interior(a, b, sched()), std::sqrt(sd), 1e-12);
  EXPECT_DOUBLE_EQ(grid::max_abs_interior(a, sched()), mx);
}

TEST(GridOps, MaxAbsInteriorIsNanWhenAnyInteriorCellIsNan) {
  // Tests bound residuals with max_abs_interior, so a NaN residual must
  // not read as a small one.  At n = 17 the pass runs as one leaf; at
  // n = 257 it forks, so a NaN in the first, a middle or the last leaf
  // must also survive the combine against larger finite maxima.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int n : {17, 257}) {
    for (const int row : {1, n / 2, n - 2}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " row=" + std::to_string(row));
      Grid2D g = random_grid(n, 41);
      g(n / 3, n / 3) = 1.0e6;
      g(row, n / 2) = nan;
      EXPECT_TRUE(std::isnan(grid::max_abs_interior(g, sched())));
    }
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_TRUE(std::isnan(grid::max_abs_interior(Grid2D(n, nan), sched())));
    // The ring is not interior: a NaN there is not read.
    Grid2D ring(n, 0.0);
    ring.fill_interior(2.0);
    ring(0, n / 2) = nan;
    ring(n / 2, n - 1) = nan;
    EXPECT_EQ(grid::max_abs_interior(ring, sched()), 2.0);
  }
}

TEST(GridOps, SizeMismatchesThrow) {
  Grid2D a(5, 0.0), b(9, 0.0), c5(5, 0.0), c3(3, 0.0);
  EXPECT_THROW(grid::apply_poisson(a, b, sched()), InvalidArgument);
  EXPECT_THROW(grid::residual(a, b, c5, sched()), InvalidArgument);
  EXPECT_THROW(grid::restrict_full_weighting(a, c5, sched()), InvalidArgument);
  EXPECT_THROW(grid::interpolate_add(c5, a, sched()), InvalidArgument);
  Grid2D bad(6, 0.0), bad_out(6, 0.0);
  EXPECT_THROW(grid::apply_poisson(bad, bad_out, sched()), InvalidArgument);
}

// -------------------------------------------------------------- problem --

TEST(Problem, DistributionNamesRoundTrip) {
  for (auto dist :
       {InputDistribution::kUnbiased, InputDistribution::kBiased,
        InputDistribution::kPointSources}) {
    EXPECT_EQ(parse_distribution(to_string(dist)), dist);
  }
  EXPECT_THROW(parse_distribution("gaussian"), InvalidArgument);
}

TEST(Problem, UnbiasedEntriesSpanPaperRange) {
  Rng rng(5);
  const auto p = make_problem(65, InputDistribution::kUnbiased, rng);
  double lo = 0.0, hi = 0.0, sum = 0.0;
  int count = 0;
  for (int i = 1; i < 64; ++i) {
    for (int j = 1; j < 64; ++j) {
      lo = std::min(lo, p.b(i, j));
      hi = std::max(hi, p.b(i, j));
      sum += p.b(i, j);
      ++count;
    }
  }
  constexpr double kTwo32 = 4294967296.0;
  EXPECT_GE(lo, -kTwo32);
  EXPECT_LE(hi, kTwo32);
  EXPECT_LT(lo, -0.5 * kTwo32);  // actually spans the range
  EXPECT_GT(hi, 0.5 * kTwo32);
  EXPECT_LT(std::abs(sum / count), 0.2 * kTwo32);  // centred near zero
}

TEST(Problem, BiasedDistributionIsShifted) {
  Rng rng(6);
  const auto p = make_problem(65, InputDistribution::kBiased, rng);
  double sum = 0.0;
  int count = 0;
  for (int i = 1; i < 64; ++i) {
    for (int j = 1; j < 64; ++j) {
      sum += p.b(i, j);
      ++count;
    }
  }
  constexpr double kTwo31 = 2147483648.0;
  EXPECT_NEAR(sum / count, kTwo31, 0.25 * kTwo31);
}

TEST(Problem, BoundaryValuesPopulatedInteriorGuessZero) {
  Rng rng(7);
  const auto p = make_problem(17, InputDistribution::kUnbiased, rng);
  bool ring_nonzero = false;
  for (int j = 0; j < 17; ++j) {
    ring_nonzero = ring_nonzero || p.x0(0, j) != 0.0 || p.x0(16, j) != 0.0;
  }
  EXPECT_TRUE(ring_nonzero);
  for (int i = 1; i < 16; ++i) {
    for (int j = 1; j < 16; ++j) {
      ASSERT_EQ(p.x0(i, j), 0.0);
    }
  }
}

TEST(Problem, PointSourcesAreSparseWithZeroBoundary) {
  Rng rng(8);
  const auto p = make_problem(33, InputDistribution::kPointSources, rng);
  int nonzero = 0;
  for (int i = 1; i < 32; ++i) {
    for (int j = 1; j < 32; ++j) {
      if (p.b(i, j) != 0.0) ++nonzero;
    }
  }
  EXPECT_GE(nonzero, 1);
  EXPECT_LE(nonzero, 5);
  for (int j = 0; j < 33; ++j) {
    ASSERT_EQ(p.x0(0, j), 0.0);
    ASSERT_EQ(p.x0(32, j), 0.0);
  }
}

TEST(Problem, SameRngStateSameProblem) {
  Rng r1(99), r2(99);
  const auto p1 = make_problem(17, InputDistribution::kBiased, r1);
  const auto p2 = make_problem(17, InputDistribution::kBiased, r2);
  for (int i = 0; i < 17; ++i) {
    for (int j = 0; j < 17; ++j) {
      ASSERT_EQ(p1.b(i, j), p2.b(i, j));
      ASSERT_EQ(p1.x0(i, j), p2.x0(i, j));
    }
  }
}

TEST(Problem, ManufacturedProblemHasExactDiscreteSolution) {
  const auto mp = make_manufactured_problem(17, sched());
  Grid2D r(17, 0.0);
  grid::residual(mp.exact, mp.problem.b, r, sched());
  EXPECT_LE(grid::max_abs_interior(r, sched()), 1e-8);
  // Boundary of the problem matches the exact solution's ring.
  EXPECT_DOUBLE_EQ(mp.problem.x0(0, 5), mp.exact(0, 5));
  EXPECT_THROW(make_manufactured_problem(10, sched()), InvalidArgument);
}

}  // namespace
}  // namespace pbmg
