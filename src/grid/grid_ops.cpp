#include "grid/grid_ops.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <mutex>

#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/wavefront.h"

namespace pbmg::grid {

namespace {

void check_same_size(const Grid2D& a, const Grid2D& b, const char* what) {
  PBMG_CHECK(a.n() == b.n(), std::string(what) + ": grid size mismatch");
}

void check_valid(const Grid2D& g, const char* what) {
  PBMG_CHECK(is_valid_grid_size(g.n()),
             std::string(what) + ": grid size must be 2^k + 1");
}

void zero_boundary(Grid2D& g) {
  const int n = g.n();
  for (int j = 0; j < n; ++j) {
    g(0, j) = 0.0;
    g(n - 1, j) = 0.0;
  }
  for (int i = 0; i < n; ++i) {
    g(i, 0) = 0.0;
    g(i, n - 1) = 0.0;
  }
}

/// Writes every interior row of `out` through `rows` (A·x, or b − A·x
/// when b is not null) and zeroes its ring.
void sweep_rows(const OperatorRows& rows, const Grid2D& x, const Grid2D* b,
                Grid2D& out, rt::Scheduler& sched) {
  const int n = out.n();
  sched.parallel_for(
      1, n - 1,
      sched.grain_for(n - 2, n - 2, rows.cost(OperatorRows::kResidual, 1)),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          rows.residual(x, b, i, out.row(i));
        }
      });
  zero_boundary(out);
}

}  // namespace

void check_batch(const char* what, int n,
                 std::initializer_list<std::span<const Grid2D* const>> fine,
                 std::initializer_list<std::span<const Grid2D* const>> coarse) {
  const std::size_t batch = fine.begin()->size();
  for (const auto grids : {fine, coarse}) {
    for (const std::span<const Grid2D* const> slots : grids) {
      PBMG_CHECK(slots.size() == batch,
                 std::string(what) + ": span size mismatch");
      for (const Grid2D* g : slots) {
        PBMG_CHECK(g != nullptr, std::string(what) + ": null grid slot");
      }
    }
  }
  PBMG_CHECK(is_valid_grid_size(n),
             std::string(what) + ": grid size must be 2^k + 1");
  for (const std::span<const Grid2D* const> slots : fine) {
    for (const Grid2D* g : slots) {
      PBMG_CHECK(g->n() == n,
                 std::string(what) + ": operator/grid size mismatch");
    }
  }
  for (const std::span<const Grid2D* const> slots : coarse) {
    for (const Grid2D* g : slots) {
      PBMG_CHECK(g->n() == coarse_size(n),
                 std::string(what) + ": coarse grid has wrong size");
    }
  }
}

void residual(const Grid2D& x, const Grid2D& b, Grid2D& r,
              rt::Scheduler& sched) {
  check_valid(x, "residual");
  residual_op(StencilOp::poisson(x.n()), x, b, r, sched);
}

void apply_op(const StencilOp& op, const Grid2D& x, Grid2D& out,
              rt::Scheduler& sched, const KernelPolicy& kernels) {
  check_valid(x, "apply_op");
  check_same_size(x, out, "apply_op");
  PBMG_CHECK(op.n() == x.n(), "apply_op: operator/grid size mismatch");
  sweep_rows(OperatorRows(op, row_width(kernels)), x, nullptr, out, sched);
}

void apply_poisson(const Grid2D& x, Grid2D& out, rt::Scheduler& sched) {
  check_valid(x, "apply_poisson");
  apply_op(StencilOp::poisson(x.n()), x, out, sched);
}

void residual_op(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                 Grid2D& r, rt::Scheduler& sched,
                 const KernelPolicy& kernels) {
  check_valid(x, "residual_op");
  check_same_size(x, b, "residual_op");
  check_same_size(x, r, "residual_op");
  PBMG_CHECK(op.n() == x.n(), "residual_op: operator/grid size mismatch");
  sweep_rows(OperatorRows(op, row_width(kernels)), x, &b, r, sched);
}

void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched) {
  check_valid(fine, "restrict_full_weighting");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_full_weighting: coarse grid has wrong size");
  const int nc = coarse.n();
  const OperatorRows rows(fine.n());
  sched.parallel_for(
      1, nc - 1, sched.grain_for(nc - 2, 4 * (nc - 2)),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int ci = static_cast<int>(ib); ci < static_cast<int>(ie); ++ci) {
          rows.restrict_rows(fine.row(2 * ci - 1), fine.row(2 * ci),
                             fine.row(2 * ci + 1), coarse.row(ci));
        }
      });
  zero_boundary(coarse);
}

void restrict_residual(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                       Grid2D& coarse, rt::Scheduler& sched,
                       const KernelPolicy& kernels) {
  const Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  Grid2D* const coarses[] = {&coarse};
  restrict_residual_multi(op, xs, bs, coarses, sched, kernels);
}

void restrict_residual_multi(const StencilOp& op,
                             std::span<const Grid2D* const> xs,
                             std::span<const Grid2D* const> bs,
                             std::span<Grid2D* const> coarse,
                             rt::Scheduler& sched,
                             const KernelPolicy& kernels,
                             std::span<Grid2D* const> zeroed) {
  // An empty `zeroed` checks as `coarse` again.
  check_batch("restrict_residual", op.n(), {xs, bs},
              {coarse, zeroed.empty() ? coarse : zeroed});
  if (xs.empty()) return;
  const int nc = coarse_size(op.n());
  const OperatorRows rows(op, row_width(kernels));
  sched.parallel_for(
      1, nc - 1,
      sched.grain_for(nc - 2, 4 * (nc - 2),
                      rows.cost(OperatorRows::kResidual, xs.size())),
      [&](std::int64_t ib, std::int64_t ie) {
        // Coarse row ci weighs fine residual rows 2ci − 1 … 2ci + 1, so
        // rows 2ib − 1 … 2ie − 1 each feed this leaf once, through its
        // ring.
        ResidualRing ring(rows, 2 * static_cast<int>(ib) - 1, xs, bs, coarse,
                          zeroed);
        for (int i = 2 * static_cast<int>(ib) - 1;
             i < 2 * static_cast<int>(ie); ++i) {
          ring.step(i);
        }
      });
  for (const int ci : {0, nc - 1}) {
    for (Grid2D* c : coarse) std::fill_n(c->row(ci), nc, 0.0);
    for (Grid2D* e : zeroed) std::fill_n(e->row(ci), nc, 0.0);
  }
}

void restrict_inject(const Grid2D& fine, Grid2D& coarse,
                     rt::Scheduler& sched) {
  check_valid(fine, "restrict_inject");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_inject: coarse grid has wrong size");
  const int nc = coarse.n();
  sched.parallel_for(0, nc, sched.grain_for(nc, nc),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int ci = static_cast<int>(ib);
                            ci < static_cast<int>(ie); ++ci) {
                         const double* src = fine.row(2 * ci);
                         double* out = coarse.row(ci);
                         for (int cj = 0; cj < nc; ++cj) {
                           out[cj] = src[2 * cj];
                         }
                       }
                     });
}

namespace {

/// fine[k] = P·coarse[k] (assign) or fine[k] += P·coarse[k] for every
/// slot: one region over the fine rows, each row run for every slot,
/// priced at `cost_per_cell` per fine cell.
void interpolate(std::span<const Grid2D* const> coarse,
                 std::span<Grid2D* const> fine, bool assign,
                 std::int64_t cost_per_cell, rt::Scheduler& sched,
                 const char* what) {
  // The fine grids have no operator: the first one's side stands in for
  // its side (any valid side when there is no grid to check).
  const int n = fine.empty() || fine[0] == nullptr ? 3 : fine[0]->n();
  check_batch(what, n, {fine}, {coarse});
  if (fine.empty()) return;
  const OperatorRows rows(n);
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2, cost_per_cell),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          for (std::size_t k = 0; k < fine.size(); ++k) {
            rows.interpolate(*coarse[k], *fine[k], i, assign);
          }
        }
      });
}

}  // namespace

void interpolate_add(const Grid2D& coarse, Grid2D& fine,
                     rt::Scheduler& sched) {
  const Grid2D* const coarses[] = {&coarse};
  Grid2D* const fines[] = {&fine};
  interpolate_add_multi(coarses, fines, sched);
}

void interpolate_add_multi(std::span<const Grid2D* const> coarse,
                           std::span<Grid2D* const> fine,
                           rt::Scheduler& sched) {
  interpolate(coarse, fine, /*assign=*/false,
              kInterpolateCost * static_cast<std::int64_t>(fine.size()),
              sched, "interpolate_add");
}

void interpolate_assign(const Grid2D& coarse, Grid2D& fine,
                        rt::Scheduler& sched) {
  const Grid2D* const coarses[] = {&coarse};
  Grid2D* const fines[] = {&fine};
  interpolate(coarses, fines, /*assign=*/true, 1, sched,
              "interpolate_assign");
}

double norm2_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* r = g.row(i);
          for (int j = 1; j < n - 1; ++j) acc += r[j] * r[j];
        }
        return acc;
      });
  return std::sqrt(sum);
}

double norm2_diff_interior(const Grid2D& a, const Grid2D& b,
                           rt::Scheduler& sched) {
  check_same_size(a, b, "norm2_diff_interior");
  const int n = a.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* ra = a.row(i);
          const double* rb = b.row(i);
          for (int j = 1; j < n - 1; ++j) {
            const double d = ra[j] - rb[j];
            acc += d * d;
          }
        }
        return acc;
      });
  return std::sqrt(sum);
}

double max_abs_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  // Per-chunk maxima combined under a mutex.  A NaN cell makes its chunk's
  // maximum NaN, and a NaN maximum wins every combine, so one NaN anywhere
  // in the interior makes the result NaN.
  const auto larger = [](double a, double b) {
    return std::isnan(a) || a >= b ? a : b;
  };
  std::mutex mutex;
  double result = 0.0;
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       double local = 0.0;
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* r = g.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           local = larger(local, std::abs(r[j]));
                         }
                       }
                       std::lock_guard<std::mutex> lock(mutex);
                       result = larger(result, local);
                     });
  return result;
}

}  // namespace pbmg::grid
