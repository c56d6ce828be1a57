// Tests for the FFT substrate: radix-2 FFT against a naive DFT, DST-I
// against its definition, and the fast Poisson solver against the banded
// direct solver and manufactured solutions.

#include <cmath>
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include "fft/fast_poisson.h"
#include "fft/fft.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"
#include "linalg/poisson_assembly.h"
#include "runtime/scheduler.h"
#include "support/error.h"
#include "support/rng.h"

namespace pbmg::fft {
namespace {

rt::Scheduler& sched() {
  static rt::Scheduler instance([] {
    rt::MachineProfile p;
    p.name = "fft-test";
    p.threads = 4;
    p.grain_rows = 2;
    return p;
  }());
  return instance;
}

std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  std::vector<std::complex<double>> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(j * k) /
                           static_cast<double>(n);
      acc += a[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, MatchesNaiveDftForward) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 128u}) {
    std::vector<std::complex<double>> a(n);
    for (auto& c : a) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    auto fast = a;
    fft_inplace(fast, false);
    const auto slow = naive_dft(a, false);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-9 * (1.0 + std::abs(slow[k])))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Fft, InverseRoundTripsToIdentity) {
  Rng rng(4);
  std::vector<std::complex<double>> a(64);
  for (auto& c : a) c = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
  auto b = a;
  fft_inplace(b, false);
  fft_inplace(b, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(std::abs(b[i] / 64.0 - a[i]), 0.0, 1e-12);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> a(6);
  EXPECT_THROW(fft_inplace(a, false), InvalidArgument);
}

TEST(Dst1, MatchesDefinition) {
  Rng rng(5);
  for (int m : {1, 3, 7, 31, 63}) {
    std::vector<double> v(static_cast<std::size_t>(m));
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    const auto original = v;
    std::vector<std::complex<double>> work(2 * static_cast<std::size_t>(m + 1));
    dst1_inplace(v.data(), m, work);
    for (int k = 1; k <= m; ++k) {
      double expected = 0.0;
      for (int j = 1; j <= m; ++j) {
        expected += original[static_cast<std::size_t>(j - 1)] *
                    std::sin(M_PI * j * k / (m + 1));
      }
      ASSERT_NEAR(v[static_cast<std::size_t>(k - 1)], expected, 1e-10)
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(Dst1, SelfInverseUpToNormalisation) {
  Rng rng(6);
  const int m = 15;
  std::vector<double> v(static_cast<std::size_t>(m));
  for (auto& x : v) x = rng.uniform(-3.0, 3.0);
  const auto original = v;
  std::vector<std::complex<double>> work(2 * static_cast<std::size_t>(m + 1));
  dst1_inplace(v.data(), m, work);
  dst1_inplace(v.data(), m, work);
  const double scale = 2.0 / (m + 1);
  for (int i = 0; i < m; ++i) {
    ASSERT_NEAR(v[static_cast<std::size_t>(i)] * scale,
                original[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(Dst1, RejectsBadLengths) {
  std::vector<double> v(5);  // m+1 = 6, not a power of two
  std::vector<std::complex<double>> work(12);
  EXPECT_THROW(dst1_inplace(v.data(), 5, work), InvalidArgument);
  std::vector<double> v3(3);
  std::vector<std::complex<double>> wrong(4);  // needs 8
  EXPECT_THROW(dst1_inplace(v3.data(), 3, wrong), InvalidArgument);
}

// --------------------------------------------------------- FastPoisson --

TEST(FastPoisson, MatchesBandedDirectSolver) {
  Rng rng(7);
  for (int n : {3, 5, 9, 17, 33}) {
    auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
    // Band solve.
    const grid::StencilOp op = grid::StencilOp::poisson(n);
    linalg::BandMatrix a = linalg::assemble_stencil_band(op);
    auto rhs = linalg::gather_stencil_rhs(op, problem.b, problem.x0);
    linalg::band_spd_solve(a, rhs);
    Grid2D direct(n, 0.0);
    direct.copy_boundary_from(problem.x0);
    linalg::scatter_interior(rhs, direct);
    // Spectral solve.
    FastPoissonSolver solver(n);
    Grid2D spectral(n, 0.0);
    solver.solve(problem.b, problem.x0, spectral, sched());
    const double scale = grid::max_abs_interior(direct, sched()) + 1.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_NEAR(spectral(i, j), direct(i, j), 1e-9 * scale)
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(FastPoisson, ReproducesManufacturedSolution) {
  for (int n : {9, 33, 65}) {
    const auto mp = make_manufactured_problem(n, sched());
    FastPoissonSolver solver(n);
    Grid2D out(n, 0.0);
    solver.solve(mp.problem.b, mp.problem.x0, out, sched());
    const double err = grid::norm2_diff_interior(out, mp.exact, sched());
    const double ref = grid::norm2_interior(mp.exact, sched()) + 1.0;
    EXPECT_LE(err / ref, 1e-11) << "n=" << n;
  }
}

TEST(FastPoisson, ResidualAtMachinePrecision) {
  Rng rng(8);
  const int n = 129;
  const auto problem = make_problem(n, InputDistribution::kBiased, rng);
  FastPoissonSolver solver(n);
  Grid2D x(n, 0.0);
  solver.solve(problem.b, problem.x0, x, sched());
  Grid2D r(n, 0.0);
  grid::residual(x, problem.b, r, sched());
  // Inputs are O(2³²) and inv_h² is ~1.6e4, so ~1e-16 relative rounding
  // shows up at O(1); require residual tiny relative to the data scale.
  const double scale = grid::max_abs_interior(problem.b, sched()) +
                       grid::max_abs_interior(x, sched()) * (n - 1.0) * (n - 1.0);
  EXPECT_LE(grid::max_abs_interior(r, sched()) / scale, 1e-10);
}

TEST(FastPoisson, ValidatesSizes) {
  EXPECT_THROW(FastPoissonSolver(8), InvalidArgument);
  FastPoissonSolver solver(5);
  Grid2D b(9, 0.0), x(9, 0.0), out(9, 0.0);
  EXPECT_THROW(solver.solve(b, x, out, sched()), InvalidArgument);
}

TEST(FastPoisson, ExactSolutionHelperSolvesOnGivenScheduler) {
  Rng rng(9);
  const auto problem = make_problem(17, InputDistribution::kUnbiased, rng);
  const Grid2D x = exact_solution(problem, sched());
  Grid2D r(17, 0.0);
  grid::residual(x, problem.b, r, sched());
  const double scale = grid::max_abs_interior(problem.b, sched()) + 1.0;
  EXPECT_LE(grid::max_abs_interior(r, sched()) / scale, 1e-9);
}

}  // namespace
}  // namespace pbmg::fft
