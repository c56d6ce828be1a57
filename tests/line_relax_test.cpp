// Line-relaxation suite: relaxed lines satisfy their equations exactly,
// zebra ordering/threading invariance (bitwise), per-family V-cycle
// contraction with line smoothing at 32:1 and 1000:1 anisotropy
// (tolerance rationale at each bound), bitwise determinism of threaded
// line sweeps across repeated solves, the Poisson fast path and an
// explicit unit-coefficient operator against the scalar oracle
// (stencil_oracle.h) at every size class, batch, thread count, layout
// and lane width, and, under PBMG_ASSERTIONS, the Thomas bodies' pivot
// check under both layouts.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_rows.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "stencil_oracle.h"
#include "support/rng.h"
#include "test_problems.h"

namespace pbmg::solvers {
namespace {

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "line-relax-test";
    p.threads = 4;
    p.grain_rows = 2;
    return EngineOptions{p, {}, {}};
  }());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

// --------------------------------------------------------------- Thomas --

TEST(ThomasSolver, RelaxedLinesSatisfyTheirEquationsExactly) {
  // After one x-line zebra sweep the even interior rows were solved last:
  // their neighbours (the odd rows) did not change afterwards, so their
  // row equations hold to rounding — line relaxation is an *exact* block
  // solve, not an approximate update.  The instance carries the unbiased
  // ±2³² data scaling (test_problems.h), so "rounding" is relative to
  // ‖b‖_∞ ~ 1e13.
  const int n = 33;
  const auto inst = testing::make_family_instance(OperatorFamily::kAnisotropic,
                                                  n, 0x7110'0002, sched());
  const grid::StencilOp op = make_operator(n, OperatorFamily::kAnisotropic);
  Grid2D x = inst.problem.x0;
  line_relax_sweep(op, x, inst.problem.b, RelaxKind::kLineX, sched(),
                   engine().scratch());
  Grid2D r(n, 0.0);
  grid::residual_op(op, x, inst.problem.b, r, sched());
  const double scale = grid::max_abs_interior(inst.problem.b, sched());
  for (int i = 2; i < n - 1; i += 2) {
    for (int j = 1; j < n - 1; ++j) {
      ASSERT_LE(std::abs(r(i, j)), 1e-10 * (scale + 1.0))
          << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------ ordering & threading --

class LineKinds : public ::testing::TestWithParam<RelaxKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, LineKinds,
                         ::testing::Values(RelaxKind::kLineX,
                                           RelaxKind::kLineY,
                                           RelaxKind::kLineZebraAlt),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST_P(LineKinds, SweepIsBitwiseIdenticalAcrossThreadCounts) {
  // Lines of one zebra parity touch disjoint memory and read only frozen
  // lines of the other parity, so scheduling must not change a single
  // bit — the same invariance the red-black point sweeps have.
  const int n = 65;
  const auto inst = testing::make_family_instance(OperatorFamily::kAnisoRotated,
                                                  n, 0x7110'0003, sched());
  const grid::StencilOp op = make_operator(n, OperatorFamily::kAnisoRotated);

  Engine serial(rt::serial_profile());
  Grid2D x_serial = inst.problem.x0;
  Grid2D x_threaded = inst.problem.x0;
  for (int s = 0; s < 3; ++s) {
    line_relax_sweep(op, x_serial, inst.problem.b, GetParam(),
                     serial.scheduler(), serial.scratch());
    line_relax_sweep(op, x_threaded, inst.problem.b, GetParam(), sched(),
                     engine().scratch());
  }
  ASSERT_EQ(0, std::memcmp(x_serial.data(), x_threaded.data(),
                           x_threaded.size() * sizeof(double)));
}

TEST_P(LineKinds, ThreadedSweepsAreDeterministicAcrossRepeatedSolves) {
  const int n = 65;
  const auto inst = testing::make_family_instance(
      OperatorFamily::kAnisotropic1000, n, 0x7110'0004, sched());
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kAnisotropic1000);
  Grid2D reference = inst.problem.x0;
  for (int s = 0; s < 4; ++s) {
    line_relax_sweep(op, reference, inst.problem.b, GetParam(), sched(),
                     engine().scratch());
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    Grid2D x = inst.problem.x0;
    for (int s = 0; s < 4; ++s) {
      line_relax_sweep(op, x, inst.problem.b, GetParam(), sched(),
                       engine().scratch());
    }
    ASSERT_EQ(0, std::memcmp(x.data(), reference.data(),
                             reference.size() * sizeof(double)))
        << "repeat " << repeat;
  }
}

// ------------------------------------------------- V-cycle contraction --

struct ContractionCase {
  OperatorFamily family;
  RelaxKind smoother;
  double bound;
  const char* label;
};

/// Per-cycle error-contraction bounds for V(1,1) with line smoothing.
/// Rationale:
///  - aniso 32:1 / x-lines: the strong direction lives inside the rows,
///    so zebra x-line relaxation restores textbook rates (~0.1–0.25
///    measured); 0.45 absorbs small-grid boundary effects.
///  - aniso 1000:1 / x-lines and zebra-alt: the rows decouple almost
///    completely and the line solve is nearly exact per row; measured
///    rates stay under ~0.25.  Bounded by 0.45 like the 32:1 case —
///    the point of the test is "bounded away from 1 uniformly in the
///    anisotropy", not the sharpest constant.
///  - aniso-rot / zebra-alt: each half-domain is served by one pass of
///    the alternating sweep while the other pass is wasted there;
///    measured ~0.3–0.5, bounded by 0.65.
class LineContraction : public ::testing::TestWithParam<ContractionCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, LineContraction,
    ::testing::Values(
        ContractionCase{OperatorFamily::kAnisotropic, RelaxKind::kLineX,
                        0.45, "aniso32_line_x"},
        ContractionCase{OperatorFamily::kAnisotropic1000, RelaxKind::kLineX,
                        0.45, "aniso1000_line_x"},
        ContractionCase{OperatorFamily::kAnisotropic1000,
                        RelaxKind::kLineZebraAlt, 0.45,
                        "aniso1000_zebra_alt"},
        ContractionCase{OperatorFamily::kAnisoRotated,
                        RelaxKind::kLineZebraAlt, 0.65, "rot_zebra_alt"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST_P(LineContraction, VCycleWithLineSmoothingContracts) {
  const ContractionCase c = GetParam();
  for (const int level : {5, 6}) {
    const int n = size_of_level(level);
    const auto inst =
        testing::make_family_instance(c.family, n, 0x7110'0005, sched());
    if (inst.initial_error == 0.0) GTEST_SKIP() << "degenerate instance";
    const grid::StencilHierarchy ops(make_operator(n, c.family));
    VCycleOptions options;
    options.relaxation = c.smoother;
    Grid2D x = inst.problem.x0;
    const double floor = 1e-12 * inst.initial_error;
    double prev = inst.initial_error;
    for (int cycle = 1; cycle <= 6; ++cycle) {
      vcycle(ops, x, inst.problem.b, options, sched(), engine().direct(),
             engine().scratch());
      const double err = testing::error_against_exact(inst, x, sched());
      if (err <= floor) break;
      EXPECT_LE(err, c.bound * prev)
          << c.label << " N=" << n << " cycle " << cycle;
      prev = err;
    }
  }
}

TEST(LineContraction, PointSmoothingStallsAtExtremeAnisotropy) {
  // The motivating failure, pinned: at 1000:1 a point-relaxed V(1,1)
  // cycle barely contracts (asymptotic rate ~0.99+), which is why the
  // smoother must be a tuned choice rather than a constant.  Measured
  // after a 2-cycle transient; >= 0.9 demonstrates the stall without
  // being sensitive to the exact rate.
  const int n = 65;
  const auto inst = testing::make_family_instance(
      OperatorFamily::kAnisotropic1000, n, 0x7110'0006, sched());
  const grid::StencilHierarchy ops(
      make_operator(n, OperatorFamily::kAnisotropic1000));
  Grid2D x = inst.problem.x0;
  const auto cycles = [&](int count) {
    for (int c = 0; c < count; ++c) {
      vcycle(ops, x, inst.problem.b, VCycleOptions{}, sched(),
             engine().direct(), engine().scratch());
    }
  };
  cycles(2);
  const double e_before = testing::error_against_exact(inst, x, sched());
  cycles(3);
  const double e_after = testing::error_against_exact(inst, x, sched());
  const double rate = std::cbrt(e_after / e_before);
  EXPECT_GE(rate, 0.9);
}

// ------------------------------------------------------ fast-path parity --

/// Dense data at the unbiased distribution's ±2³² scale, ring included.
Grid2D random_grid(int n, std::uint64_t seed) {
  Grid2D g(n, 0.0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      g(i, j) = rng.uniform(-4294967296.0, 4294967296.0);
    }
  }
  return g;
}

/// One zebra pass of the Poisson bands at lane width W over every iterate,
/// group by group as grid::packed_line_multi drives them (which runs
/// Poisson at the widest width only).
template <int W>
void poisson_pass_at_width(std::vector<Grid2D>& xs,
                           const std::vector<Grid2D>& bs, bool columns) {
  const int n = xs[0].n();
  const auto scratch = static_cast<std::size_t>((n - 1) * W);
  for (int parity = 1; parity >= 0; --parity) {
    const int first = parity == 1 ? 1 : 2;
    const int count = first <= n - 2 ? (n - 2 - first) / 2 + 1 : 0;
    for (int row = 0; row < count; row += W) {
      std::vector<double> cp(scratch), dp(scratch), sub(scratch), inv(scratch);
      grid::pk::LineGroup g{.stencil = grid::pk::LineStencil::kPoisson,
                            .columns = columns,
                            .first = first + 2 * row,
                            .lanes = std::min(W, count - row),
                            .slots = static_cast<int>(xs.size()),
                            .cp = cp.data(),
                            .dp = dp.data(),
                            .sub = sub.data(),
                            .inv = inv.data(),
                            .h2 = mesh_width(n) * mesh_width(n),
                            .n = n};
      for (std::size_t k = 0; k < xs.size(); ++k) {
        g.x = xs[k].row(0);
        g.b = bs[k].row(0);
        g.slot = static_cast<int>(k);
        grid::pk::line_group<W>(g);
      }
    }
  }
}

TEST(LineFastPath, ExplicitConstantCoefficientsMatchPoissonBitwise) {
  // A StencilOp holding explicit all-ones coefficient grids is *not* the
  // fast path (it stores grids), yet its line systems are algebraically
  // the Poisson systems with the same association order, and every band
  // value is an exact small integer — the Poisson passes, whose bands
  // read no grid, and the 5-point passes over the explicit grids must
  // both agree bit for bit with the scalar oracle's passes over those
  // grids, one iterate at a time.  Poisson runs its bands at the widest
  // width under either layout, the explicit operator at one lane under
  // the legacy layout and at widths 1, 2 and 4 under the packed one;
  // one-pass at K = 1 and factor-once at K = 3, on four threads and on
  // one.  At n = 3 a group clamps to two lanes; at n = 257 a pass forks
  // on four threads and each parity ends in a three-lane group.  The
  // narrower widths' Poisson bands are driven directly.
  static Engine serial(rt::serial_profile());
  for (const int n : {3, 5, 9, 17, 33, 65, 257}) {
    Grid2D ones_ax(n, 1.0), ones_ay(n, 1.0);
    const grid::StencilOp explicit_op = grid::StencilOp::variable(
        std::move(ones_ax), std::move(ones_ay), 0.0);
    ASSERT_FALSE(explicit_op.is_poisson());
    const grid::StencilOp poisson = grid::StencilOp::poisson(n);
    for (const int k_count : {1, 3}) {
      std::vector<Grid2D> x0;
      std::vector<Grid2D> bs;
      for (int k = 0; k < k_count; ++k) {
        x0.push_back(random_grid(n, 0x7110'0007 + 2 * k));
        bs.push_back(random_grid(n, 0x7110'0008 + 2 * k));
      }
      std::vector<const Grid2D*> b_slots;
      for (const Grid2D& b : bs) b_slots.push_back(&b);
      const auto sweep = [&](const grid::StencilOp& op, RelaxKind kind,
                             Engine& eng, const grid::KernelPolicy& policy) {
        std::vector<Grid2D> xs = x0;
        std::vector<Grid2D*> x_slots;
        for (Grid2D& x : xs) x_slots.push_back(&x);
        for (int s = 0; s < 3; ++s) {
          line_relax_sweep_multi(op, x_slots, b_slots, kind, eng.scheduler(),
                                 eng.scratch(), policy);
        }
        return xs;
      };
      const auto expect_same = [&](const std::vector<Grid2D>& got,
                                   const std::vector<Grid2D>& want,
                                   const std::string& what) {
        for (int k = 0; k < k_count; ++k) {
          ASSERT_EQ(0, std::memcmp(got[k].data(), want[k].data(),
                                   want[k].size() * sizeof(double)))
              << what << " n=" << n << " K=" << k_count << " slot " << k;
        }
      };
      for (const RelaxKind kind :
           {RelaxKind::kLineX, RelaxKind::kLineY, RelaxKind::kLineZebraAlt}) {
        std::vector<Grid2D> oracle = x0;
        for (int k = 0; k < k_count; ++k) {
          for (int s = 0; s < 3; ++s) {
            testing::oracle::line_sweep(explicit_op, oracle[k], bs[k], kind);
          }
        }
        // The legacy layout ignores simd_width, and Poisson ignores both.
        const grid::KernelPolicy policies[] = {
            {grid::StencilLayout::kLegacy, 1},
            {grid::StencilLayout::kPacked, 1},
            {grid::StencilLayout::kPacked, 2},
            {grid::StencilLayout::kPacked, 4}};
        for (Engine* eng : {&engine(), &serial}) {
          for (const grid::KernelPolicy& policy : policies) {
            const std::string what =
                to_string(kind) + " " + grid::to_string(policy.layout) +
                " W=" + std::to_string(policy.simd_width) +
                (eng == &serial ? " serial" : " 4 threads");
            expect_same(sweep(explicit_op, kind, *eng, policy), oracle,
                        "explicit " + what);
            if (policy.layout == grid::StencilLayout::kLegacy ||
                policy.simd_width == 4) {
              expect_same(sweep(poisson, kind, *eng, policy), oracle,
                          "poisson " + what);
            }
          }
        }
        const auto at_width = [&](auto width) {
          constexpr int W = decltype(width)::value;
          if (grid::packed_simd_width_supported() < W) return;
          std::vector<Grid2D> xs = x0;
          for (int s = 0; s < 3; ++s) {
            if (kind != RelaxKind::kLineY) {
              poisson_pass_at_width<W>(xs, bs, /*columns=*/false);
            }
            if (kind != RelaxKind::kLineX) {
              poisson_pass_at_width<W>(xs, bs, /*columns=*/true);
            }
          }
          expect_same(xs, oracle, to_string(kind) + " W=" + std::to_string(W));
        };
        at_width(std::integral_constant<int, 1>{});
        at_width(std::integral_constant<int, 2>{});
      }
    }
  }
}

#if defined(PBMG_ASSERTIONS)
TEST(LineRelax, NonPositivePivotThrowsUnderBothLayouts) {
  // Edge couplings of 2 around a centre of 1: every x-line's first pivot
  // is 1 and its second 1 − (−2)·(−2) = −3, which the Thomas bodies
  // check lane by lane at every width.
  const int n = 9;
  const grid::StencilOp op = grid::StencilOp::nine_point(
      Grid2D(n, 2.0), Grid2D(n, 1.0), Grid2D(n, 0.0), Grid2D(n, 0.0),
      Grid2D(n, 1.0), 0.0);
  for (const grid::StencilLayout layout :
       {grid::StencilLayout::kLegacy, grid::StencilLayout::kPacked}) {
    for (const int width : {1, 2, 4}) {
      Grid2D x(n, 0.0);
      const Grid2D b(n, 1.0);
      EXPECT_THROW(line_relax_sweep(op, x, b, RelaxKind::kLineX, sched(),
                                    engine().scratch(), {layout, width}),
                   InvalidArgument)
          << grid::to_string(layout) << " W=" << width;
    }
  }
}
#endif

TEST(LineRelax, RejectsInvalidOperands) {
  Grid2D x(17, 0.0), wrong(9, 0.0);
  const grid::StencilOp poisson = grid::StencilOp::poisson(17);
  EXPECT_THROW(line_relax_sweep(poisson, x, wrong, RelaxKind::kLineX, sched(),
                                engine().scratch()),
               InvalidArgument);
  EXPECT_THROW(line_relax_sweep(poisson, x, x, RelaxKind::kSor, sched(),
                                engine().scratch()),
               InvalidArgument);
  const grid::StencilOp op = make_operator(9, OperatorFamily::kAnisotropic);
  Grid2D b(17, 0.0);
  EXPECT_THROW(line_relax_sweep(op, x, b, RelaxKind::kLineY, sched(),
                                engine().scratch()),
               InvalidArgument);
}

}  // namespace
}  // namespace pbmg::solvers
