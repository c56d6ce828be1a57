// Line-relaxation suite: relaxed lines satisfy their equations exactly,
// zebra ordering/threading invariance (bitwise), per-family V-cycle
// contraction with line smoothing at 32:1 and 1000:1 anisotropy
// (tolerance rationale at each bound), bitwise determinism of threaded
// line sweeps across repeated solves, and StencilOp-vs-Poisson fast-path
// parity on constant coefficients.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
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

TEST(LineFastPath, ExplicitConstantCoefficientsMatchPoissonBitwise) {
  // A StencilOp holding explicit all-ones coefficient grids is *not* the
  // fast path (it stores grids), yet its line systems are algebraically
  // the Poisson systems with the same association order, and every band
  // value is an exact small integer — the sweeps must agree bit for bit
  // with the dedicated constant-coefficient kernels.
  const int n = 33;
  Grid2D ones_ax(n, 1.0), ones_ay(n, 1.0);
  const grid::StencilOp explicit_op =
      grid::StencilOp::variable(std::move(ones_ax), std::move(ones_ay), 0.0);
  ASSERT_FALSE(explicit_op.is_poisson());
  const grid::StencilOp poisson = grid::StencilOp::poisson(n);
  const auto inst = testing::make_family_instance(OperatorFamily::kPoisson, n,
                                                  0x7110'0007, sched());
  for (const RelaxKind kind :
       {RelaxKind::kLineX, RelaxKind::kLineY, RelaxKind::kLineZebraAlt}) {
    Grid2D via_op = inst.problem.x0;
    Grid2D via_poisson = inst.problem.x0;
    for (int s = 0; s < 3; ++s) {
      line_relax_sweep(explicit_op, via_op, inst.problem.b, kind, sched(),
                       engine().scratch());
      line_relax_sweep(poisson, via_poisson, inst.problem.b, kind, sched(),
                       engine().scratch());
    }
    ASSERT_EQ(0, std::memcmp(via_op.data(), via_poisson.data(),
                             via_poisson.size() * sizeof(double)))
        << to_string(kind);
  }
}

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
