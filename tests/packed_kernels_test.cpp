// Row-kernel suite: the one set of pk:: rows and line bands
// (grid/packed_kernels.h), run at one lane under the legacy layout and
// at simd_width lanes under the packed one, promise *bitwise* identity
// with the scalar oracle loops (stencil_oracle.h) for every operator
// family, SIMD width, smoother and thread count.  That contract is what
// lets the tuner race the layout and width axes as pure performance
// knobs — no candidate can change the numerics — so this suite pins it
// with exact (memcmp-grade) equality, not tolerances: residual/apply,
// coloured SOR and the zebra line solves, on 5-point and 9-point
// operators, down the Galerkin RAP ladder, at n = 3 and 5 edge sizes,
// and across thread counts, under both layouts against the oracle.
// Also covered: what the rows read (every view entry against
// StencilOp::coupling, and nothing packed beside the grids), a level
// that outlives the ladder it was copied from, the Poisson passthrough,
// width clamping, and KernelPolicy validation.  The constant-coefficient Poisson residual and SOR rows
// and the restriction and interpolation rows every operator shares are
// pinned against scalar reference loops kept here, at every width,
// through the public entry points at one and four threads, and with
// eight-row leaves racing at n = 257 to 1025; the
// fused restrict_residual, solo and over K iterates, is pinned against
// the oracle's residual followed by the scalar restriction for every
// operator kind on one to four threads, and the corrections it zeroes
// come back zero.  Random-coefficient operators (stencil_oracle.h) join
// the thread-count, fused-pass and fused-restriction cases, so a
// reordered 5-point diagonal or 9-point row fails them too.  The fused Poisson
// RECURSE head and tail and the one-pass sweep are pinned against the
// scalar references, solo and batched, on one to four threads, and the
// variable-coefficient ones (the same wavefronts over the 5- and 9-point
// rows) under both layouts against the oracle's separate passes.  Inside a solve that has
// forked a region, where the scheduler prices passes by their work, the
// packed sweeps, line passes, fused restriction and batched
// interpolation are pinned against one thread at n = 65 and 129.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_rows.h"
#include "grid/packed_stencil.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"
#include "stencil_oracle.h"
#include "support/rng.h"

namespace pbmg::grid {
namespace {

namespace oracle = pbmg::testing::oracle;

Engine& engine_with(int threads, int grain_rows = 2) {
  static Engine one([] {
    rt::MachineProfile p;
    p.name = "packed-test-1t";
    p.threads = 1;
    return EngineOptions{p, {}, {}};
  }());
  static Engine four([] {
    rt::MachineProfile p;
    p.name = "packed-test-4t";
    p.threads = 4;
    p.grain_rows = 2;  // force real slicing so races would surface
    return EngineOptions{p, {}, {}};
  }());
  // Eight-row leaves: a fused-restriction leaf carries residual rows from
  // one coarse row to the next only when it holds more than two.
  static Engine four_wide([] {
    rt::MachineProfile p;
    p.name = "packed-test-4t-g8";
    p.threads = 4;
    p.grain_rows = 8;
    return EngineOptions{p, {}, {}};
  }());
  // Two and three threads split the Poisson wavefront passes into 8 and
  // 12 blocks; three gives blocks of uneven length.
  static Engine two([] {
    rt::MachineProfile p;
    p.name = "packed-test-2t";
    p.threads = 2;
    return EngineOptions{p, {}, {}};
  }());
  static Engine three([] {
    rt::MachineProfile p;
    p.name = "packed-test-3t";
    p.threads = 3;
    return EngineOptions{p, {}, {}};
  }());
  if (threads == 1) return one;
  if (threads == 2) return two;
  if (threads == 3) return three;
  return grain_rows == 8 ? four_wide : four;
}

/// Deterministic dense test data; magnitudes mixed so any dropped term or
/// re-associated sum flips low-order bits the comparisons below catch.
Grid2D random_grid(int n, std::uint64_t seed) {
  Grid2D g(n, 0.0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      g(i, j) = rng.uniform(-1.0e3, 1.0e3);
    }
  }
  return g;
}

::testing::AssertionResult bitwise_equal(const Grid2D& a, const Grid2D& b) {
  if (a.n() != b.n()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  const std::size_t cells =
      static_cast<std::size_t>(a.n()) * static_cast<std::size_t>(a.n());
  if (std::memcmp(a.data(), b.data(), cells * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (int i = 0; i < a.n(); ++i) {
    for (int j = 0; j < a.n(); ++j) {
      const double av = a(i, j);
      const double bv = b(i, j);
      if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first divergence at (" << i << ", " << j << "): " << av
               << " vs " << bv;
      }
    }
  }
  return ::testing::AssertionFailure() << "memcmp failed (padding?)";
}

/// Families that exercise every packed code path: 5-point variable
/// coefficients (smooth, high-contrast, extreme anisotropy, piecewise
/// rotation) and the 9-point tensor discretisations.
constexpr OperatorFamily kParityFamilies[] = {
    OperatorFamily::kSmoothVariable,  OperatorFamily::kJumpCoefficient,
    OperatorFamily::kAnisotropic1000, OperatorFamily::kAnisoRotated,
    OperatorFamily::kAnisoTheta30,    OperatorFamily::kAnisoTheta45};

constexpr int kWidths[] = {1, 2, 4};

KernelPolicy packed_policy(int width) {
  KernelPolicy policy;
  policy.layout = StencilLayout::kPacked;
  policy.simd_width = width;
  return policy;
}

// ------------------------------------------------------ layout & policy --

TEST(PackedStencil, FivePointRowsReadTheGridsAndPackNothing) {
  // The 5-point rows sum their diagonal from these four couplings; the
  // oracle parity below pins that sum's bits.
  const int n = 17;
  const StencilOp op = make_operator(n, OperatorFamily::kSmoothVariable);
  ASSERT_FALSE(op.is_nine_point());
  EXPECT_EQ(op.packed().bytes(), 0u);
  EXPECT_EQ(op.bytes(), 2 * static_cast<std::size_t>(n) * n * sizeof(double));
  for (int i = 1; i < n - 1; ++i) {
    const pk::View5 v = pk::view5(op, i);
    for (int j = 1; j < n - 1; ++j) {
      EXPECT_EQ(v.aw[j], op.coupling(i, j, 0, -1));
      EXPECT_EQ(v.ae[j], op.coupling(i, j, 0, 1));
      EXPECT_EQ(v.an[j], op.coupling(i, j, -1, 0));
      EXPECT_EQ(v.as[j], op.coupling(i, j, 1, 0));
    }
  }
}

TEST(PackedStencil, NinePointRowsReadTheGridsAndPackNothing) {
  const int n = 17;
  const StencilOp op = make_operator(n, OperatorFamily::kAnisoTheta30);
  ASSERT_TRUE(op.is_nine_point());
  EXPECT_EQ(op.packed().bytes(), 0u);
  for (int i = 1; i < n - 1; ++i) {
    const pk::View9 v = pk::view9(op, i);
    for (int j = 1; j < n - 1; ++j) {
      EXPECT_EQ(v.aw[j], op.coupling(i, j, 0, -1));
      EXPECT_EQ(v.ae[j], op.coupling(i, j, 0, 1));
      EXPECT_EQ(v.an[j], op.coupling(i, j, -1, 0));
      EXPECT_EQ(v.as[j], op.coupling(i, j, 1, 0));
      EXPECT_EQ(v.nw[j - 1], op.coupling(i, j, -1, -1));
      EXPECT_EQ(v.ne[j], op.coupling(i, j, -1, 1));
      EXPECT_EQ(v.sw[j], op.coupling(i, j, 1, -1));
      EXPECT_EQ(v.se[j], op.coupling(i, j, 1, 1));
      EXPECT_EQ(v.ctr[j], op.center(i, j));
    }
  }
}

TEST(KernelPolicy, ValidationAndLayoutNames) {
  KernelPolicy ok;
  validate_kernel_policy(ok);  // defaults are valid
  validate_kernel_policy(packed_policy(4));
  KernelPolicy bad = packed_policy(3);
  EXPECT_THROW(validate_kernel_policy(bad), InvalidArgument);
  EXPECT_EQ(to_string(StencilLayout::kLegacy), "legacy");
  EXPECT_EQ(to_string(StencilLayout::kPacked), "packed");
  EXPECT_EQ(parse_stencil_layout("packed"), StencilLayout::kPacked);
  EXPECT_EQ(parse_stencil_layout("legacy"), StencilLayout::kLegacy);
  EXPECT_THROW(parse_stencil_layout("soa"), InvalidArgument);
}

TEST(KernelPolicy, WidthClampIsMonotoneAndValid) {
  const int supported = packed_simd_width_supported();
  EXPECT_TRUE(supported == 1 || supported == 2 || supported == 4);
  for (const int w : kWidths) {
    const int clamped = clamp_simd_width(w);
    EXPECT_LE(clamped, w);
    EXPECT_LE(clamped, supported);
    EXPECT_TRUE(clamped == 1 || clamped == 2 || clamped == 4);
  }
  EXPECT_EQ(clamp_simd_width(1), 1);
  // The legacy layout runs the rows at one lane whatever it requests.
  for (const int w : kWidths) {
    EXPECT_EQ(row_width({StencilLayout::kLegacy, w}), 1);
    EXPECT_EQ(row_width(packed_policy(w)), clamp_simd_width(w));
  }
}

// ------------------------------------------------------------- sweeps --

/// Runs `sweep(x, b, policy, threads)` from identical state through the
/// oracle (a null policy) and through both layouts at `width`, and
/// requires bitwise-identical iterates.
template <typename Sweep>
void expect_sweep_parity(const StencilOp& op, int width, int threads,
                         std::uint64_t seed, const Sweep& sweep) {
  const int n = op.n();
  const Grid2D b = random_grid(n, seed ^ 0xB0B);
  const Grid2D x0 = random_grid(n, seed);
  Grid2D expected = x0;
  sweep(expected, b, nullptr, 1);
  for (const StencilLayout layout :
       {StencilLayout::kLegacy, StencilLayout::kPacked}) {
    const KernelPolicy policy{layout, width};
    Grid2D x = x0;
    sweep(x, b, &policy, threads);
    EXPECT_TRUE(bitwise_equal(x, expected))
        << "n=" << n << " layout=" << to_string(layout) << " width=" << width
        << " threads=" << threads;
  }
}

void expect_all_sweeps_parity(const StencilOp& op, int width, int threads,
                              std::uint64_t seed) {
  const auto sor = [&](Grid2D& x, const Grid2D& b, const KernelPolicy* k,
                       int t) {
    rt::Scheduler& sched = engine_with(t).scheduler();
    // Three chained sweeps: any drift compounds and must stay zero.
    for (int s = 0; s < 3; ++s) {
      if (k == nullptr) {
        oracle::sor_sweep(op, x, b, 1.15);
      } else {
        solvers::sor_sweep(op, x, b, 1.15, sched, *k);
      }
    }
  };
  const auto lines = [&](solvers::RelaxKind kind) {
    return [&, kind](Grid2D& x, const Grid2D& b, const KernelPolicy* k,
                     int t) {
      Engine& eng = engine_with(t);
      for (int s = 0; s < 2; ++s) {
        if (k == nullptr) {
          oracle::line_sweep(op, x, b, kind);
        } else {
          solvers::line_relax_sweep(op, x, b, kind, eng.scheduler(),
                                    eng.scratch(), *k);
        }
      }
    };
  };
  const auto residual = [&](Grid2D& x, const Grid2D& b,
                            const KernelPolicy* k, int t) {
    rt::Scheduler& sched = engine_with(t).scheduler();
    Grid2D r(x.n(), 1.0);  // overwritten; nonzero so stale cells surface
    if (k == nullptr) {
      oracle::stencil_rows(op, x, &b, r);
    } else {
      residual_op(op, x, b, r, sched, *k);
    }
    x = r;
  };
  const auto apply = [&](Grid2D& x, const Grid2D&, const KernelPolicy* k,
                         int t) {
    rt::Scheduler& sched = engine_with(t).scheduler();
    Grid2D out(x.n(), 1.0);
    if (k == nullptr) {
      oracle::stencil_rows(op, x, nullptr, out);
    } else {
      apply_op(op, x, out, sched, *k);
    }
    x = out;
  };
  expect_sweep_parity(op, width, threads, seed, residual);
  expect_sweep_parity(op, width, threads, seed, apply);
  expect_sweep_parity(op, width, threads, seed, sor);
  expect_sweep_parity(op, width, threads, seed, lines(solvers::RelaxKind::kLineX));
  expect_sweep_parity(op, width, threads, seed, lines(solvers::RelaxKind::kLineY));
  expect_sweep_parity(op, width, threads, seed,
                      lines(solvers::RelaxKind::kLineZebraAlt));
}

TEST(PackedParity, AllKernelsAllFamiliesAllWidths) {
  const int n = 33;
  std::uint64_t seed = 0x5EED;
  for (const OperatorFamily family : kParityFamilies) {
    const StencilOp op = make_operator(n, family);
    for (const int width : kWidths) {
      SCOPED_TRACE("family=" + to_string(family) +
                   " width=" + std::to_string(width));
      expect_all_sweeps_parity(op, width, /*threads=*/4, ++seed);
    }
  }
}

TEST(PackedParity, ThreadCountsAgree) {
  // At n = 257 a line pass forks outside a solve, and the even parity's
  // 127 lines leave a three-lane tail group: jump is the served 5-point
  // operator, θ=45° the 9-point one.  The random-coefficient operators
  // (stencil_oracle.h), and a RAP level of the 5-point one, are where a
  // reordered 5-point diagonal or 9-point row rounds differently.
  const StencilOp random5 = oracle::random_five_point(513, 0x5A17);
  const StencilHierarchy random5_rap(random5, Coarsening::kRap);
  const std::pair<const char*, StencilOp> cases[] = {
      {"theta45", make_operator(65, OperatorFamily::kAnisoTheta45)},
      {"jump", make_operator(257, OperatorFamily::kJumpCoefficient)},
      {"theta45", make_operator(257, OperatorFamily::kAnisoTheta45)},
      {"random 5-point", oracle::random_five_point(257, 0x5A18)},
      {"random 9-point", oracle::random_nine_point(65, 0x9A17)},
      {"random 9-point", oracle::random_nine_point(257, 0x9A18)},
      {"random 5-point rap", random5_rap.at(level_of_size(257))}};
  for (const auto& [name, op] : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(op.n()) +
                   " threads=" + std::to_string(threads));
      expect_all_sweeps_parity(op, /*width=*/4, threads, 0xC0FFEE);
    }
  }
}

TEST(PackedParity, DownTheGalerkinRapLadder) {
  // RAP of a 9-point tensor operator stays 9-point on every coarse level;
  // RAP of a 5-point operator *becomes* 9-point below the finest.  Both
  // ladders must hold parity level by level.
  for (const OperatorFamily family :
       {OperatorFamily::kAnisoTheta30, OperatorFamily::kAnisoRotated}) {
    const StencilOp fine = make_operator(33, family);
    const StencilHierarchy ladder(fine, Coarsening::kRap);
    std::uint64_t seed = 0xAB1E;
    for (int level = ladder.top_level(); level >= 1; --level) {
      const StencilOp op = ladder.at(level);
      SCOPED_TRACE("family=" + to_string(family) +
                   " level=" + std::to_string(level) +
                   " n=" + std::to_string(op.n()));
      expect_all_sweeps_parity(op, /*width=*/4, /*threads=*/4, ++seed);
    }
  }
}

TEST(PackedParity, TinyGridsIncludingCoarsestSolvable) {
  // n = 3 has a single interior point (and a single interior line); n = 5
  // is the smallest size where the line sweeps' lane batching is real.
  // The line kernels clamp the width internally below n = 5.
  std::uint64_t seed = 0x71AD;
  for (const int n : {3, 5}) {
    const StencilOp op = make_operator(n, OperatorFamily::kJumpCoefficient);
    for (const int width : kWidths) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " width=" + std::to_string(width));
      expect_all_sweeps_parity(op, width, /*threads=*/4, ++seed);
    }
  }
}

TEST(PackedParity, PoissonPassthroughMatchesTheOracle) {
  // The Poisson fast path keeps its dedicated constant-coefficient
  // kernels under either layout, so a policy on the Poisson operator
  // must be a pure passthrough.
  const StencilOp op = StencilOp::poisson(33);
  EXPECT_TRUE(op.is_poisson());
  expect_all_sweeps_parity(op, /*width=*/4, /*threads=*/4, 0xBEEF);
}

TEST(PackedParity, ALevelCopiedOutOfItsLadderOutlivesIt) {
  // The rows build their views from the operator they are handed, row by
  // row, so a level copied out of a ladder still reads the grids it
  // co-owns after the ladder and the fine operator are gone.  Under ASan
  // a view left pointing into freed grids fails here.  Averaged jump
  // levels are 5-point, RAP levels 9-point.
  const int n = 33;
  for (const Coarsening mode : {Coarsening::kAverage, Coarsening::kRap}) {
    StencilOp level;
    {
      const StencilOp fine =
          make_operator(2 * n - 1, OperatorFamily::kJumpCoefficient);
      const StencilHierarchy ladder(fine, mode);
      level = ladder.at(level_of_size(n));
    }
    ASSERT_EQ(level.is_nine_point(), mode == Coarsening::kRap);
    SCOPED_TRACE("coarsening=" + to_string(mode));
    expect_all_sweeps_parity(level, /*width=*/4, /*threads=*/4, 0x11FE);
  }
}

// ------------------------------------- Poisson fast path & transfers --

// Scalar reference loops for the constant-coefficient residual, red-black
// SOR, full-weighting restriction and bilinear interpolation: the parity
// oracle that every row width and every entry point must match bit for
// bit.

void reference_residual(const Grid2D& x, const Grid2D& b, Grid2D& r) {
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  r.fill(0.0);
  for (int i = 1; i < n - 1; ++i) {
    const double* up = x.row(i - 1);
    const double* mid = x.row(i);
    const double* down = x.row(i + 1);
    const double* rhs = b.row(i);
    double* o = r.row(i);
    for (int j = 1; j < n - 1; ++j) {
      o[j] = rhs[j] -
             (4.0 * mid[j] - up[j] - down[j] - mid[j - 1] - mid[j + 1]) *
                 inv_h2;
    }
  }
}

void reference_sor(Grid2D& x, const Grid2D& b, double omega) {
  const int n = x.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double quarter_omega = 0.25 * omega;
  const double keep = 1.0 - omega;
  for (int parity = 0; parity <= 1; ++parity) {
    for (int i = 1; i < n - 1; ++i) {
      const double* up = x.row(i - 1);
      double* mid = x.row(i);
      const double* down = x.row(i + 1);
      const double* rhs = b.row(i);
      for (int j = 1 + ((i + 1 + parity) & 1); j < n - 1; j += 2) {
        mid[j] = keep * mid[j] + quarter_omega * (h2 * rhs[j] + up[j] +
                                                  down[j] + mid[j - 1] +
                                                  mid[j + 1]);
      }
    }
  }
}

void reference_restrict(const Grid2D& fine, Grid2D& coarse) {
  const int nc = coarse.n();
  coarse.fill(0.0);
  for (int ci = 1; ci < nc - 1; ++ci) {
    const double* up = fine.row(2 * ci - 1);
    const double* mid = fine.row(2 * ci);
    const double* down = fine.row(2 * ci + 1);
    for (int cj = 1; cj < nc - 1; ++cj) {
      const int fj = 2 * cj;
      coarse(ci, cj) =
          (4.0 * mid[fj] +
           2.0 * (up[fj] + down[fj] + mid[fj - 1] + mid[fj + 1]) +
           up[fj - 1] + up[fj + 1] + down[fj - 1] + down[fj + 1]) *
          (1.0 / 16.0);
    }
  }
}

void reference_interpolate(const Grid2D& coarse, Grid2D& fine, bool assign) {
  const int n = fine.n();
  for (int i = 1; i < n - 1; ++i) {
    double* out = fine.row(i);
    const double* c0 = coarse.row(i / 2);
    const double* c1 = coarse.row(i / 2 + (i % 2));
    for (int j = 1; j < n - 1; ++j) {
      double v = 0.0;
      if (i % 2 == 0) {
        v = j % 2 == 0 ? c0[j / 2] : 0.5 * (c0[j / 2] + c0[j / 2 + 1]);
      } else {
        v = j % 2 == 0 ? 0.5 * (c0[j / 2] + c1[j / 2])
                       : 0.25 * (c0[j / 2] + c0[j / 2 + 1] + c1[j / 2] +
                                 c1[j / 2 + 1]);
      }
      if (assign) out[j] = v;
      else out[j] += v;
    }
  }
}

/// Calls f(std::integral_constant<int, W>) for every lane width the
/// running CPU can execute.
template <typename F>
void for_each_supported_width(const F& f) {
  f(std::integral_constant<int, 1>{});
  if (packed_simd_width_supported() >= 2) f(std::integral_constant<int, 2>{});
  if (packed_simd_width_supported() >= 4) f(std::integral_constant<int, 4>{});
}

/// n = 3 … 33 cover a single interior point and every vector tail.
constexpr int kSmallSizes[] = {3, 5, 9, 17, 33};

TEST(PoissonRows, EveryWidthMatchesTheScalarReference) {
  std::uint64_t seed = 0x9051;
  for (const int n : kSmallSizes) {
    const int nc = coarse_size(n);
    const double inv_h2 =
        static_cast<double>(n - 1) * static_cast<double>(n - 1);
    const double h2 = mesh_width(n) * mesh_width(n);
    const Grid2D x = random_grid(n, ++seed);
    const Grid2D b = random_grid(n, ++seed);
    const Grid2D coarse = random_grid(nc, ++seed);
    Grid2D r_ref(n, 0.0);
    reference_residual(x, b, r_ref);
    Grid2D sor_ref = x;
    for (int s = 0; s < 3; ++s) reference_sor(sor_ref, b, 1.15);
    Grid2D rc_ref(nc, 0.0);
    reference_restrict(x, rc_ref);
    Grid2D add_ref = x;
    reference_interpolate(coarse, add_ref, /*assign=*/false);
    Grid2D assign_ref = x;
    reference_interpolate(coarse, assign_ref, /*assign=*/true);

    for_each_supported_width([&](auto width) {
      constexpr int W = decltype(width)::value;
      SCOPED_TRACE("n=" + std::to_string(n) + " W=" + std::to_string(W));
      Grid2D r(n, 0.0);
      for (int i = 1; i < n - 1; ++i) {
        pk::poisson_residual_row<W>(x.row(i - 1), x.row(i), x.row(i + 1),
                                    b.row(i), r.row(i), inv_h2, n);
      }
      EXPECT_TRUE(bitwise_equal(r, r_ref)) << "residual";

      // One thread walks every row in order, so every row may take the
      // full-width kernel.
      Grid2D sor = x;
      for (int s = 0; s < 3; ++s) {
        for (int parity = 0; parity <= 1; ++parity) {
          for (int i = 1; i < n - 1; ++i) {
            pk::poisson_sor_row<W>(sor.row(i - 1), sor.row(i), sor.row(i + 1),
                                   b.row(i), h2, 0.25 * 1.15, 1.0 - 1.15,
                                   1 + ((i + 1 + parity) & 1), n);
          }
        }
      }
      EXPECT_TRUE(bitwise_equal(sor, sor_ref)) << "three SOR sweeps";

      Grid2D rc(nc, 0.0);
      for (int ci = 1; ci < nc - 1; ++ci) {
        pk::restrict_row<W>(x.row(2 * ci - 1), x.row(2 * ci),
                            x.row(2 * ci + 1), rc.row(ci), nc);
      }
      EXPECT_TRUE(bitwise_equal(rc, rc_ref)) << "restriction";

      for (const bool assign : {false, true}) {
        Grid2D fine = x;
        for (int i = 1; i < n - 1; ++i) {
          pk::interpolate_row<W>(coarse.row(i / 2),
                                 i % 2 == 0 ? nullptr : coarse.row(i / 2 + 1),
                                 fine.row(i), assign, n);
        }
        EXPECT_TRUE(bitwise_equal(fine, assign ? assign_ref : add_ref))
            << (assign ? "interpolate_assign" : "interpolate_add");
      }
    });
  }
}

/// The public entry points against the reference at one size and engine.
void expect_entry_points_match_reference(int n, Engine& eng,
                                         std::uint64_t seed) {
  rt::Scheduler& sched = eng.scheduler();
  const int nc = coarse_size(n);
  const Grid2D x = random_grid(n, seed);
  const Grid2D b = random_grid(n, seed + 1);
  const Grid2D coarse = random_grid(nc, seed + 2);

  Grid2D r_ref(n, 0.0);
  reference_residual(x, b, r_ref);
  Grid2D r(n, 1.0);
  residual(x, b, r, sched);
  EXPECT_TRUE(bitwise_equal(r, r_ref)) << "residual";
  Grid2D r_op(n, 1.0);
  residual_op(StencilOp::poisson(n), x, b, r_op, sched, packed_policy(4));
  EXPECT_TRUE(bitwise_equal(r_op, r_ref)) << "residual_op";

  Grid2D sor_ref = x;
  Grid2D sor = x;
  for (int s = 0; s < 3; ++s) {
    reference_sor(sor_ref, b, 1.15);
    solvers::sor_sweep(sor, b, 1.15, sched);
  }
  EXPECT_TRUE(bitwise_equal(sor, sor_ref)) << "three SOR sweeps";

  Grid2D rc_ref(nc, 0.0);
  reference_restrict(r_ref, rc_ref);
  Grid2D rc(nc, 1.0);
  restrict_full_weighting(r_ref, rc, sched);
  EXPECT_TRUE(bitwise_equal(rc, rc_ref)) << "restrict_full_weighting";
  Grid2D fused(nc, 1.0);
  restrict_residual(StencilOp::poisson(n), x, b, fused, sched);
  EXPECT_TRUE(bitwise_equal(fused, rc_ref)) << "restrict_residual";

  Grid2D add_ref = x;
  Grid2D add = x;
  reference_interpolate(coarse, add_ref, /*assign=*/false);
  interpolate_add(coarse, add, sched);
  EXPECT_TRUE(bitwise_equal(add, add_ref)) << "interpolate_add";
  Grid2D assign_ref = x;
  Grid2D assign = x;
  reference_interpolate(coarse, assign_ref, /*assign=*/true);
  interpolate_assign(coarse, assign, sched);
  EXPECT_TRUE(bitwise_equal(assign, assign_ref)) << "interpolate_assign";
}

TEST(PoissonRows, EntryPointsMatchTheScalarReferenceAtOneAndFourThreads) {
  std::uint64_t seed = 0xE27;
  for (const int n : kSmallSizes) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      expect_entry_points_match_reference(n, engine_with(threads), seed += 8);
    }
  }
}

TEST(PoissonRows, SlicedSweepsMatchTheScalarReference) {
  // Past the 16,384-cell sequential cutoff, so four threads run the SOR
  // sweep's wavefront blocks and the restriction's eight-row leaves
  // concurrently: the narrow rows at block edges and the fused
  // restriction's per-leaf buffers race here if anywhere.
  std::uint64_t seed = 0x511CE;
  for (const int n : {257, 513, 1025}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_entry_points_match_reference(n, engine_with(4, 8), seed += 8);
  }
}

TEST(FusedRestriction, MatchesResidualThenRestrictForEveryOperatorKind) {
  // restrict_residual runs the same rows as residual_op, so its reference
  // is the oracle's residual (stencil_oracle.h) followed by the scalar
  // restriction, one slot at a time.  Solo, and K = 3 slots with and
  // without zeroed corrections, on one to four threads: Poisson, every
  // parity family under both layouts, the random-coefficient operators,
  // a Galerkin RAP level of a rotated and of a random operator, and jump
  // at n = 257 with eight-row leaves.
  const auto expect_fused = [](const StencilOp& op, const KernelPolicy& k,
                               std::uint64_t seed, int grain_rows = 2) {
    constexpr int kSlots = 3;
    const int n = op.n();
    const int nc = coarse_size(n);
    std::vector<Grid2D> xs_store;
    std::vector<Grid2D> bs_store;
    std::vector<Grid2D> expected;
    for (int s = 0; s < kSlots; ++s) {
      xs_store.push_back(random_grid(n, seed + 2 * static_cast<unsigned>(s)));
      bs_store.push_back(
          random_grid(n, seed + 2 * static_cast<unsigned>(s) + 1));
      Grid2D r(n, 0.0);
      oracle::stencil_rows(op, xs_store.back(), &bs_store.back(), r);
      expected.emplace_back(nc, 1.0);
      reference_restrict(r, expected.back());
    }
    std::vector<const Grid2D*> xs;
    std::vector<const Grid2D*> bs;
    for (int s = 0; s < kSlots; ++s) {
      xs.push_back(&xs_store[s]);
      bs.push_back(&bs_store[s]);
    }
    for (const int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      rt::Scheduler& sched = engine_with(threads, grain_rows).scheduler();
      Grid2D solo(nc, 2.0);
      restrict_residual(op, xs_store[0], bs_store[0], solo, sched, k);
      EXPECT_TRUE(bitwise_equal(solo, expected[0])) << "solo";
      for (const bool zero_corrections : {false, true}) {
        std::vector<Grid2D> coarse_store(kSlots, Grid2D(nc, 2.0));
        std::vector<Grid2D> zeroed_store(kSlots, Grid2D(nc, 3.0));
        std::vector<Grid2D*> coarse;
        std::vector<Grid2D*> zeroed;
        for (int s = 0; s < kSlots; ++s) {
          coarse.push_back(&coarse_store[s]);
          zeroed.push_back(&zeroed_store[s]);
        }
        restrict_residual_multi(
            op, xs, bs, coarse, sched, k,
            zero_corrections ? std::span<Grid2D* const>(zeroed)
                             : std::span<Grid2D* const>());
        for (int s = 0; s < kSlots; ++s) {
          EXPECT_TRUE(bitwise_equal(coarse_store[s], expected[s]))
              << "slot " << s << " zeroing=" << zero_corrections;
          EXPECT_TRUE(bitwise_equal(
              zeroed_store[s], Grid2D(nc, zero_corrections ? 0.0 : 3.0)))
              << "correction " << s;
        }
      }
    }
  };
  std::uint64_t seed = 0xF05E;
  for (const int n : kSmallSizes) {
    SCOPED_TRACE("poisson n=" + std::to_string(n));
    expect_fused(StencilOp::poisson(n), KernelPolicy{}, seed += 8);
  }
  const KernelPolicy policies[] = {KernelPolicy{}, packed_policy(4)};
  for (const OperatorFamily family : kParityFamilies) {
    for (const int n : {5, 33}) {
      const StencilOp op = make_operator(n, family);
      for (const KernelPolicy& k : policies) {
        SCOPED_TRACE("family=" + to_string(family) + " n=" +
                     std::to_string(n) + " layout=" + to_string(k.layout));
        expect_fused(op, k, seed += 8);
      }
    }
  }
  const StencilHierarchy rap(make_operator(33, OperatorFamily::kAnisoTheta30),
                             Coarsening::kRap);
  const StencilHierarchy random_rap(oracle::random_five_point(129, 0x5A1A),
                                    Coarsening::kRap);
  const std::pair<const char*, StencilOp> operators[] = {
      {"theta30 rap level", rap.at(rap.top_level() - 1)},
      {"random 5-point", oracle::random_five_point(65, 0x5A1B)},
      {"random 9-point", oracle::random_nine_point(65, 0x9A1B)},
      {"random 5-point rap level", random_rap.at(random_rap.top_level() - 1)}};
  for (const auto& [name, op] : operators) {
    for (const KernelPolicy& k : policies) {
      SCOPED_TRACE(std::string(name) + " layout=" + to_string(k.layout));
      expect_fused(op, k, seed += 8);
    }
  }
  const StencilOp jump = make_operator(257, OperatorFamily::kJumpCoefficient);
  for (const KernelPolicy& k : policies) {
    SCOPED_TRACE("jump n=257 sliced, layout=" + to_string(k.layout));
    expect_fused(jump, k, seed += 8, /*grain_rows=*/8);
  }
}

// ------------------------------------------ fused Poisson body passes --

/// The fused Poisson passes of a RECURSE body, and the one-pass SOR
/// sweep, against the scalar references run one pass at a time on every
/// slot: the head (sweep, then residual restriction, and a zeroed
/// correction), the tail (interpolated correction, then sweep) and
/// sor_sweep_multi.  Blocks split by thread count, so the engines' one to
/// four threads cover one block, even blocks and uneven ones.
void expect_fused_passes_match_reference(int n, int k_count,
                                         std::uint64_t seed) {
  const double omega = solvers::kRecurseOmega;
  const int nc = coarse_size(n);
  const StencilOp op = StencilOp::poisson(n);
  std::vector<Grid2D> x0;
  std::vector<Grid2D> b;
  std::vector<Grid2D> e;
  std::vector<Grid2D> head_x;
  std::vector<Grid2D> head_rc;
  std::vector<Grid2D> tail_x;
  std::vector<Grid2D> sweep_x;
  for (int k = 0; k < k_count; ++k) {
    x0.push_back(random_grid(n, seed + 10 * static_cast<unsigned>(k)));
    b.push_back(random_grid(n, seed + 10 * static_cast<unsigned>(k) + 1));
    e.push_back(random_grid(nc, seed + 10 * static_cast<unsigned>(k) + 2));
    head_x.push_back(x0.back());
    reference_sor(head_x.back(), b.back(), omega);
    Grid2D r(n, 0.0);
    reference_residual(head_x.back(), b.back(), r);
    head_rc.emplace_back(nc, 0.0);
    reference_restrict(r, head_rc.back());
    tail_x.push_back(x0.back());
    reference_interpolate(e.back(), tail_x.back(), /*assign=*/false);
    reference_sor(tail_x.back(), b.back(), omega);
    sweep_x.push_back(x0.back());
    reference_sor(sweep_x.back(), b.back(), omega);
  }
  const Grid2D zero(nc, 0.0);
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " K=" + std::to_string(k_count) +
                 " threads=" + std::to_string(threads));
    Engine& eng = engine_with(threads);
    std::vector<Grid2D> xs_store = x0;
    std::vector<Grid2D> rc_store(x0.size(), Grid2D(nc, 2.0));
    std::vector<Grid2D> es_store(x0.size(), Grid2D(nc, 3.0));
    std::vector<Grid2D*> xs;
    std::vector<const Grid2D*> bs;
    std::vector<Grid2D*> rcs;
    std::vector<Grid2D*> es;
    std::vector<const Grid2D*> es_read;
    for (int k = 0; k < k_count; ++k) {
      xs.push_back(&xs_store[k]);
      bs.push_back(&b[k]);
      rcs.push_back(&rc_store[k]);
      es.push_back(&es_store[k]);
      es_read.push_back(&e[k]);
    }
    solvers::recurse_head(op, xs, bs, solvers::RelaxKind::kSor, omega, rcs,
                          es, eng.scheduler(), eng.scratch(), {}, nullptr);
    for (int k = 0; k < k_count; ++k) {
      EXPECT_TRUE(bitwise_equal(xs_store[k], head_x[k]))
          << "head sweep, slot " << k;
      EXPECT_TRUE(bitwise_equal(rc_store[k], head_rc[k]))
          << "head restriction, slot " << k;
      EXPECT_TRUE(bitwise_equal(es_store[k], zero))
          << "head correction, slot " << k;
    }
    xs_store = x0;
    solvers::recurse_tail(op, es_read, xs, bs, solvers::RelaxKind::kSor, omega,
                          eng.scheduler(), eng.scratch(), {}, nullptr);
    for (int k = 0; k < k_count; ++k) {
      EXPECT_TRUE(bitwise_equal(xs_store[k], tail_x[k])) << "tail, slot " << k;
    }
    xs_store = x0;
    solvers::sor_sweep_multi(op, xs, bs, omega, eng.scheduler());
    for (int k = 0; k < k_count; ++k) {
      EXPECT_TRUE(bitwise_equal(xs_store[k], sweep_x[k]))
          << "sweep, slot " << k;
    }
  }
}

TEST(FusedPoissonPasses, HeadTailAndSweepMatchTheScalarReference) {
  // From one interior row (n = 3, no coarse interior) through every
  // vector tail to the sliced sizes past the sequential cutoff, where
  // blocks and triangles run concurrently.
  std::uint64_t seed = 0xB0D1E5;
  for (const int n : {3, 5, 9, 17, 33, 257, 513, 1025}) {
    for (const int k_count : {1, 3}) {
      expect_fused_passes_match_reference(n, k_count, seed += 100);
    }
  }
}

// ----------------------------------------- fused stencil body passes --

/// The body passes of one operator over K iterates from the same start:
/// the RECURSE head (sweep, residual restriction, zeroed correction), the
/// tail (interpolated correction, sweep) and sor_sweep_multi, in the
/// order head x, head rc, head e, tail x, sweep x.  With a null policy
/// they are the oracle's separate passes, one slot at a time; otherwise
/// the fused wavefronts under `policy`, run inside a solve that has
/// forked, so the scheduler prices them by their work and splits them
/// into blocks from n = 257 (n = 129 on the 9-point levels).
std::vector<Grid2D> body_passes(const StencilOp& op, int k_count,
                                const KernelPolicy* policy, int threads) {
  const double omega = solvers::kRecurseOmega;
  const int n = op.n();
  const int nc = coarse_size(n);
  std::vector<Grid2D> x0;
  std::vector<Grid2D> b;
  std::vector<Grid2D> e;
  for (int k = 0; k < k_count; ++k) {
    x0.push_back(random_grid(n, 0xA0 + static_cast<unsigned>(k)));
    b.push_back(random_grid(n, 0xB0 + static_cast<unsigned>(k)));
    e.push_back(random_grid(nc, 0xC0 + static_cast<unsigned>(k)));
  }
  std::vector<Grid2D> x_store = x0;
  std::vector<Grid2D> rc_store(x0.size(), Grid2D(nc, 2.0));
  std::vector<Grid2D> es_store(x0.size(), Grid2D(nc, 3.0));
  std::vector<Grid2D> out;
  if (policy == nullptr) {
    for (int k = 0; k < k_count; ++k) {
      oracle::sor_sweep(op, x_store[k], b[k], omega);
      Grid2D r(n, 0.0);
      oracle::stencil_rows(op, x_store[k], &b[k], r);
      reference_restrict(r, rc_store[k]);
      es_store[k].fill(0.0);
    }
    out.insert(out.end(), x_store.begin(), x_store.end());
    out.insert(out.end(), rc_store.begin(), rc_store.end());
    out.insert(out.end(), es_store.begin(), es_store.end());
    x_store = x0;
    for (int k = 0; k < k_count; ++k) {
      reference_interpolate(e[k], x_store[k], /*assign=*/false);
      oracle::sor_sweep(op, x_store[k], b[k], omega);
    }
    out.insert(out.end(), x_store.begin(), x_store.end());
    x_store = x0;
    for (int k = 0; k < k_count; ++k) {
      oracle::sor_sweep(op, x_store[k], b[k], omega);
    }
    out.insert(out.end(), x_store.begin(), x_store.end());
    return out;
  }
  std::vector<Grid2D*> xs;
  std::vector<const Grid2D*> bs;
  std::vector<Grid2D*> rcs;
  std::vector<Grid2D*> es;
  std::vector<const Grid2D*> es_read;
  for (int k = 0; k < k_count; ++k) {
    xs.push_back(&x_store[k]);
    bs.push_back(&b[k]);
    rcs.push_back(&rc_store[k]);
    es.push_back(&es_store[k]);
    es_read.push_back(&e[k]);
  }
  Engine& eng = engine_with(threads);
  rt::Scheduler& sched = eng.scheduler();
  const rt::SolveScope solve;
  sched.parallel_for(0, 2, 1, [](std::int64_t, std::int64_t) {});
  solvers::recurse_head(op, xs, bs, solvers::RelaxKind::kSor, omega, rcs, es,
                        sched, eng.scratch(), *policy, nullptr);
  out.insert(out.end(), x_store.begin(), x_store.end());
  out.insert(out.end(), rc_store.begin(), rc_store.end());
  out.insert(out.end(), es_store.begin(), es_store.end());
  x_store = x0;
  solvers::recurse_tail(op, es_read, xs, bs, solvers::RelaxKind::kSor, omega,
                        sched, eng.scratch(), *policy, nullptr);
  out.insert(out.end(), x_store.begin(), x_store.end());
  x_store = x0;
  solvers::sor_sweep_multi(op, xs, bs, omega, sched, *policy);
  out.insert(out.end(), x_store.begin(), x_store.end());
  return out;
}

TEST(FusedStencilPasses, HeadTailAndSweepMatchTheOracle) {
  // Point-SOR bodies run as wavefronts under both layouts, with the wide
  // rows from n = 65 at width 4; the oracle's colour passes, residual,
  // restriction and interpolation, one slot at a time, are the
  // reference.  Jump's averaged 5-point and RAP 9-point levels and
  // theta=45's averaged ladder (9-point) cover every kind, from one
  // interior row to n = 513, under the legacy layout (one lane, which
  // ignores simd_width: KernelPolicy.WidthClampIsMonotoneAndValid) and
  // the packed one at every width, on one to four threads (even and
  // uneven blocks), solo and batched.  The random-coefficient ladders
  // (stencil_oracle.h: a 5-point operator averaged, a 9-point one and its
  // RAP levels) round differently under any reordered row.
  const StencilOp jump = make_operator(513, OperatorFamily::kJumpCoefficient);
  const StencilOp t45 = make_operator(513, OperatorFamily::kAnisoTheta45);
  const StencilHierarchy jump_avg(jump, Coarsening::kAverage);
  const StencilHierarchy jump_rap(jump, Coarsening::kRap);
  const StencilHierarchy t45_avg(t45, Coarsening::kAverage);
  const StencilHierarchy random5_avg(oracle::random_five_point(513, 0x5A19),
                                     Coarsening::kAverage);
  const StencilHierarchy random9_rap(oracle::random_nine_point(513, 0x9A19),
                                     Coarsening::kRap);
  const std::pair<const char*, const StencilHierarchy*> ladders[] = {
      {"jump averaged", &jump_avg},
      {"jump rap", &jump_rap},
      {"theta45 averaged", &t45_avg},
      {"random 5-point averaged", &random5_avg},
      {"random 9-point rap", &random9_rap}};
  for (const auto& [name, ladder] : ladders) {
    for (const int n : {3, 5, 9, 17, 33, 65, 129, 257, 513}) {
      const StencilOp& op = ladder->at(level_of_size(n));
      for (const int k_count : {1, 3}) {
        const std::vector<Grid2D> reference =
            body_passes(op, k_count, nullptr, /*threads=*/1);
        for (const KernelPolicy& policy :
             {KernelPolicy{}, packed_policy(1), packed_policy(2),
              packed_policy(4)}) {
          for (const int threads : {1, 2, 3, 4}) {
            SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                         " k=" + std::to_string(k_count) + " layout=" +
                         to_string(policy.layout) + " width=" +
                         std::to_string(policy.simd_width) +
                         " threads=" + std::to_string(threads));
            const std::vector<Grid2D> got =
                body_passes(op, k_count, &policy, threads);
            ASSERT_EQ(got.size(), reference.size());
            for (std::size_t g = 0; g < got.size(); ++g) {
              EXPECT_TRUE(bitwise_equal(got[g], reference[g]))
                  << "grid " << g << " (head x, head rc, head e, tail x, "
                  << "sweep x; " << k_count << " slots each)";
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------- multi-RHS --

/// Solo-vs-batched check: runs `solo(x, b)` on each of K slots and
/// `multi(xs, bs)` on identically-seeded copies; every slot must finish
/// bitwise identical.  The fused multi-RHS kernels reorder only memory
/// traffic (one coefficient-row load serves all K), never any single
/// slot's accumulation order, so exact equality is the contract the
/// batched serving path (SolveService::solve_batch) stands on.
template <typename Solo, typename Multi>
void expect_multi_matches_solo(int n, int k_count, std::uint64_t seed,
                               const Solo& solo, const Multi& multi) {
  std::vector<Grid2D> b_store;
  std::vector<Grid2D> solo_store;
  std::vector<Grid2D> multi_store;
  for (int k = 0; k < k_count; ++k) {
    b_store.push_back(random_grid(n, seed + 1000 + static_cast<unsigned>(k)));
    solo_store.push_back(random_grid(n, seed + static_cast<unsigned>(k)));
    multi_store.push_back(solo_store.back());
  }
  for (int k = 0; k < k_count; ++k) solo(solo_store[k], b_store[k]);
  std::vector<Grid2D*> xs;
  std::vector<const Grid2D*> bs;
  for (int k = 0; k < k_count; ++k) {
    xs.push_back(&multi_store[k]);
    bs.push_back(&b_store[k]);
  }
  multi(xs, bs);
  for (int k = 0; k < k_count; ++k) {
    EXPECT_TRUE(bitwise_equal(solo_store[k], multi_store[k]))
        << "slot " << k << " of " << k_count;
  }
}

void expect_all_multi_parity(const StencilOp& op, const KernelPolicy& policy,
                             int k_count, int threads, std::uint64_t seed,
                             int grain_rows = 2) {
  const int n = op.n();
  Engine& eng = engine_with(threads, grain_rows);
  rt::Scheduler& sched = eng.scheduler();
  // The span restriction against an independent per-slot reference: the
  // stored residual, then full weighting.  Each slot's x becomes its
  // coarse grid.
  expect_multi_matches_solo(
      n, k_count, seed,
      [&](Grid2D& x, const Grid2D& b) {
        Grid2D r(n, 1.0);
        residual_op(op, x, b, r, sched, policy);
        Grid2D coarse(coarse_size(n), 1.0);
        restrict_full_weighting(r, coarse, sched);
        x = coarse;
      },
      [&](std::vector<Grid2D*>& xs, std::vector<const Grid2D*>& bs) {
        std::vector<Grid2D> c_store(xs.size(), Grid2D(coarse_size(n), 2.0));
        std::vector<Grid2D*> cs;
        std::vector<const Grid2D*> xs_read;
        for (std::size_t k = 0; k < xs.size(); ++k) {
          cs.push_back(&c_store[k]);
          xs_read.push_back(xs[k]);
        }
        restrict_residual_multi(op, xs_read, bs, cs, sched, policy);
        for (std::size_t k = 0; k < xs.size(); ++k) *xs[k] = c_store[k];
      });
  expect_multi_matches_solo(
      n, k_count, seed ^ 0x50F,
      [&](Grid2D& x, const Grid2D& b) {
        // Three chained sweeps: any drift compounds and must stay zero.
        for (int s = 0; s < 3; ++s) {
          solvers::sor_sweep(op, x, b, 1.15, sched, policy);
        }
      },
      [&](std::vector<Grid2D*>& xs, std::vector<const Grid2D*>& bs) {
        for (int s = 0; s < 3; ++s) {
          solvers::sor_sweep_multi(op, xs, bs, 1.15, sched, policy);
        }
      });
  expect_multi_matches_solo(
      n, k_count, seed ^ 0x11E,
      [&](Grid2D& x, const Grid2D& b) {
        for (int s = 0; s < 2; ++s) {
          solvers::line_relax_sweep(op, x, b,
                                    solvers::RelaxKind::kLineZebraAlt,
                                    sched, eng.scratch(), policy);
        }
      },
      [&](std::vector<Grid2D*>& xs, std::vector<const Grid2D*>& bs) {
        for (int s = 0; s < 2; ++s) {
          solvers::line_relax_sweep_multi(op, xs, bs,
                                          solvers::RelaxKind::kLineZebraAlt,
                                          sched, eng.scratch(), policy);
        }
      });
}

TEST(MultiRhsParity, AllFamiliesWidthsAndLayoutsMatchSolo) {
  const int n = 33;
  std::uint64_t seed = 0x3A7C;
  for (const OperatorFamily family : kParityFamilies) {
    const StencilOp op = make_operator(n, family);
    SCOPED_TRACE("family=" + to_string(family) + " legacy");
    expect_all_multi_parity(op, KernelPolicy{}, /*k_count=*/4,
                            /*threads=*/4, ++seed);
    for (const int width : kWidths) {
      SCOPED_TRACE("family=" + to_string(family) +
                   " packed width=" + std::to_string(width));
      expect_all_multi_parity(op, packed_policy(width), /*k_count=*/4,
                              /*threads=*/4, ++seed);
    }
  }
}

TEST(MultiRhsParity, PoissonFastPathAndThreadCountsMatchSolo) {
  // n = 257 is past the sequential cutoff, so the 4-thread runs split the
  // SOR sweep into wavefront blocks, whose edge rows take the narrow SOR
  // row, and the restriction into eight-row leaves.
  std::uint64_t seed = 0xF00D;
  for (const int n : {33, 257}) {
    const StencilOp op = StencilOp::poisson(n);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      expect_all_multi_parity(op, KernelPolicy{}, /*k_count=*/3, threads,
                              ++seed, /*grain_rows=*/n > 33 ? 8 : 2);
    }
  }
}

TEST(MultiRhsParity, BatchSizesIncludingSingleAndOddMatchSolo) {
  // K = 1 is the batch body itself (the single-grid entry points forward
  // a one-element span), except the packed line passes, which pick their
  // one-pass body at K = 1 and their factor-once body above it; K = 5
  // leaves a partial trailing element in any would-be unrolling.  All
  // must hold parity.
  const StencilOp op = make_operator(17, OperatorFamily::kAnisoTheta45);
  std::uint64_t seed = 0x0DD;
  for (const int k_count : {1, 2, 5}) {
    SCOPED_TRACE("k=" + std::to_string(k_count));
    expect_all_multi_parity(op, packed_policy(4), k_count, /*threads=*/4,
                            ++seed);
  }
}

// ------------------------------------------------------ forked solve --

/// Every pass a variable-coefficient walk runs, over K iterates on
/// `threads` threads: three SOR sweeps, one x, one y and one alternating
/// line sweep, the fused restriction with zeroed corrections, then the
/// restricted residuals interpolated back onto the iterates.  The
/// passes run inside a solve that has already forked a region (on one
/// thread nothing forks), so the scheduler prices them by their work and
/// forks them where their cells alone would run inline.
std::vector<Grid2D> walk_passes(const StencilOp& op, int k_count,
                                int threads) {
  const int n = op.n();
  Engine& eng = engine_with(threads);
  rt::Scheduler& sched = eng.scheduler();
  const KernelPolicy policy = packed_policy(4);
  std::vector<Grid2D> x_store;
  std::vector<Grid2D> b_store;
  for (int k = 0; k < k_count; ++k) {
    x_store.push_back(random_grid(n, 0xF0 + static_cast<unsigned>(k)));
    b_store.push_back(random_grid(n, 0xB0 + static_cast<unsigned>(k)));
  }
  std::vector<Grid2D*> xs;
  std::vector<const Grid2D*> bs;
  for (int k = 0; k < k_count; ++k) {
    xs.push_back(&x_store[k]);
    bs.push_back(&b_store[k]);
  }
  std::vector<Grid2D> coarse(k_count, Grid2D(coarse_size(n), 1.0));
  std::vector<Grid2D> zeroed(k_count, Grid2D(coarse_size(n), 1.0));
  std::vector<Grid2D*> cs;
  std::vector<Grid2D*> es;
  for (int k = 0; k < k_count; ++k) {
    cs.push_back(&coarse[k]);
    es.push_back(&zeroed[k]);
  }
  const rt::SolveScope solve;
  sched.parallel_for(0, 2, 1, [](std::int64_t, std::int64_t) {});
  // The premise: a line pass at n <= 129 is under the cutoff by its cells
  // and, once the solve has forked, over it by its work.
  EXPECT_EQ(threads == 1, sched.below_cutoff(n - 2, n - 2, kLineCost));
  for (int s = 0; s < 3; ++s) {
    solvers::sor_sweep_multi(op, xs, bs, 1.15, sched, policy);
  }
  for (const solvers::RelaxKind kind :
       {solvers::RelaxKind::kLineX, solvers::RelaxKind::kLineY,
        solvers::RelaxKind::kLineZebraAlt}) {
    solvers::line_relax_sweep_multi(op, xs, bs, kind, sched, eng.scratch(),
                                    policy);
  }
  const std::vector<const Grid2D*> xs_read(xs.begin(), xs.end());
  restrict_residual_multi(op, xs_read, bs, cs, sched, policy, es);
  const std::vector<const Grid2D*> cs_read(cs.begin(), cs.end());
  interpolate_add_multi(cs_read, xs, sched);
  std::vector<Grid2D> out = x_store;
  out.insert(out.end(), coarse.begin(), coarse.end());
  out.insert(out.end(), zeroed.begin(), zeroed.end());
  return out;
}

TEST(ForkedSolve, WorkPricedPassesMatchOneThreadBitwise) {
  // Inside a forked solve the line passes and the 9-point RAP SOR sweep
  // fork from n = 65, and the 5-point averaged sweep, the fused
  // restriction and the batched interpolation at n = 129 or K = 3, where
  // outside one all of them run inline: each wavefront run, line group,
  // coarse row and fine row is independent, so every thread count gives
  // the one-thread bits.
  const StencilOp fine = make_operator(257, OperatorFamily::kJumpCoefficient);
  const StencilHierarchy averaged(fine, Coarsening::kAverage);
  const StencilHierarchy rap(fine, Coarsening::kRap);
  for (const StencilHierarchy* ladder : {&averaged, &rap}) {
    for (const int n : {65, 129}) {
      const StencilOp& op = ladder->at(level_of_size(n));
      for (const int k_count : {1, 3}) {
        const std::vector<Grid2D> reference =
            walk_passes(op, k_count, /*threads=*/1);
        for (const int threads : {2, 3, 4}) {
          SCOPED_TRACE(std::string(op.is_nine_point() ? "rap" : "averaged") +
                       " n=" + std::to_string(n) +
                       " k=" + std::to_string(k_count) +
                       " threads=" + std::to_string(threads));
          const std::vector<Grid2D> got =
              walk_passes(op, k_count, threads);
          ASSERT_EQ(got.size(), reference.size());
          for (std::size_t g = 0; g < got.size(); ++g) {
            EXPECT_TRUE(bitwise_equal(got[g], reference[g])) << "grid " << g;
          }
        }
      }
    }
  }
}

TEST(PackedParity, RepeatedRunsAreDeterministic) {
  // The packed sweeps keep the legacy determinism guarantee: identical
  // inputs give identical bits run over run under a threaded scheduler.
  const StencilOp op = make_operator(65, OperatorFamily::kAnisotropic1000);
  Engine& eng = engine_with(4);
  const Grid2D b = random_grid(65, 0xD0);
  Grid2D first = random_grid(65, 0xD1);
  Grid2D second = first;
  const KernelPolicy policy = packed_policy(4);
  for (int s = 0; s < 3; ++s) {
    solvers::line_relax_sweep(op, first, b, solvers::RelaxKind::kLineZebraAlt,
                              eng.scheduler(), eng.scratch(), policy);
  }
  for (int s = 0; s < 3; ++s) {
    solvers::line_relax_sweep(op, second, b, solvers::RelaxKind::kLineZebraAlt,
                              eng.scheduler(), eng.scratch(), policy);
  }
  EXPECT_TRUE(bitwise_equal(first, second));
}

}  // namespace
}  // namespace pbmg::grid
