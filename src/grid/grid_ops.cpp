#include "grid/grid_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_rows.h"

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

}  // namespace

namespace {

/// The row kernel of one operator that apply_op, residual_op and
/// restrict_residual drive: rows(x, b, i, out) writes interior row i of
/// b − A·x — or of A·x when b is null — into out[1..n−2].  One object
/// serves every iterate of a batch.  The kinds are the Poisson fast path
/// (the pk:: SIMD row at the widest supported width) and the pk:: 5- and
/// 9-point rows at `width` lanes (row_width of the policy).  Every kind
/// at every width gives the same bits as its scalar loop, so a driver's
/// choice of rows never changes results.
class StencilRows {
 public:
  StencilRows(const StencilOp& op, int width)
      : op_(op),
        n_(op.n()),
        inv_h2_(static_cast<double>(op.n() - 1) *
                static_cast<double>(op.n() - 1)),
        c_(op.c()) {
    if (op.is_poisson()) {
      row_ = by_width(packed_simd_width_supported(), &poisson<1>,
                      &poisson<2>, &poisson<4>);
    } else if (op.is_nine_point()) {
      row_ = by_width(width, &nine<1>, &nine<2>, &nine<4>);
    } else {
      row_ = by_width(width, &five<1>, &five<2>, &five<4>);
    }
  }

  void operator()(const Grid2D& x, const Grid2D* b, int i,
                  double* out) const {
    row_(*this, x, b != nullptr ? b->row(i) : nullptr, i, out);
  }

  /// grain_for's cost per cell of a pass of these rows over K iterates.
  std::int64_t cost(std::size_t batch) const {
    if (op_.is_poisson()) return 1;
    return (op_.is_nine_point() ? kResidualCost9 : kResidualCost5) *
           static_cast<std::int64_t>(batch);
  }

 private:
  using RowFn = void (*)(const StencilRows&, const Grid2D&, const double*,
                         int, double*);

  template <int W>
  static void poisson(const StencilRows& s, const Grid2D& x,
                      const double* rhs, int i, double* out) {
    pk::poisson_residual_row<W>(x.row(i - 1), x.row(i), x.row(i + 1), rhs,
                                out, s.inv_h2_, s.n_);
  }

  template <int W>
  static void five(const StencilRows& s, const Grid2D& x, const double* rhs,
                   int i, double* out) {
    pk::stencil_row5<W>(pk::view5(s.op_, i), x.row(i - 1), x.row(i),
                        x.row(i + 1), rhs, out, s.inv_h2_, s.c_, s.n_);
  }

  template <int W>
  static void nine(const StencilRows& s, const Grid2D& x, const double* rhs,
                   int i, double* out) {
    pk::stencil_row9<W>(pk::view9(s.op_, i), x.row(i - 1), x.row(i),
                        x.row(i + 1), rhs, out, s.inv_h2_, s.c_, s.n_);
  }

  const StencilOp& op_;
  int n_;
  double inv_h2_;
  double c_;
  RowFn row_ = nullptr;
};

/// Writes every interior row of `out` through `rows` and zeroes its ring.
void sweep_rows(const StencilRows& rows, const Grid2D& x, const Grid2D* b,
                Grid2D& out, rt::Scheduler& sched) {
  const int n = out.n();
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2, rows.cost(1)),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         rows(x, b, i, out.row(i));
                       }
                     });
  zero_boundary(out);
}

}  // namespace

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
  sweep_rows(StencilRows(op, row_width(kernels)), x, nullptr, out, sched);
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
  sweep_rows(StencilRows(op, row_width(kernels)), x, &b, r, sched);
}

namespace {

using RestrictRowFn = void (*)(const double*, const double*, const double*,
                               double*, int);

RestrictRowFn restrict_row_fn() {
  return by_width(packed_simd_width_supported(), &pk::restrict_row<1>,
                  &pk::restrict_row<2>, &pk::restrict_row<4>);
}

}  // namespace

void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched) {
  check_valid(fine, "restrict_full_weighting");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_full_weighting: coarse grid has wrong size");
  const int nc = coarse.n();
  const RestrictRowFn restrict_row = restrict_row_fn();
  sched.parallel_for(
      1, nc - 1, sched.grain_for(nc - 2, 4 * (nc - 2)),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int ci = static_cast<int>(ib); ci < static_cast<int>(ie); ++ci) {
          restrict_row(fine.row(2 * ci - 1), fine.row(2 * ci),
                       fine.row(2 * ci + 1), coarse.row(ci), nc);
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
  PBMG_CHECK(xs.size() == bs.size() && xs.size() == coarse.size() &&
                 (zeroed.empty() || zeroed.size() == xs.size()),
             "restrict_residual: span size mismatch");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr && coarse[k] != nullptr &&
                   (zeroed.empty() || zeroed[k] != nullptr),
               "restrict_residual: null grid slot");
    check_valid(*xs[k], "restrict_residual");
    check_same_size(*xs[k], *bs[k], "restrict_residual");
    PBMG_CHECK(op.n() == xs[k]->n(),
               "restrict_residual: operator/grid size mismatch");
    PBMG_CHECK(coarse[k]->n() == coarse_size(xs[k]->n()) &&
                   (zeroed.empty() || zeroed[k]->n() == coarse[k]->n()),
               "restrict_residual: coarse grid has wrong size");
  }
  if (xs.empty()) return;
  const std::size_t batch = xs.size();
  const int n = op.n();
  const int nc = coarse_size(n);
  const StencilRows rows(op, row_width(kernels));
  const RestrictRowFn restrict_row = restrict_row_fn();
  sched.parallel_for(
      1, nc - 1, sched.grain_for(nc - 2, 4 * (nc - 2), rows.cost(batch)),
      [&](std::int64_t ib, std::int64_t ie) {
        // Coarse row ci weighs fine residual rows 2ci−1 … 2ci+1, so rows
        // 2ib−1 … 2ie−1 each feed this leaf once: the odd row below one
        // coarse row is the row above the next, and trades places with
        // the row below instead of being recomputed.  Each slot owns
        // three buffer rows, and every slot's rows of one fine row are
        // computed back to back, so that row's coefficient rows are
        // loaded once for the whole batch.  Only the buffer's interior
        // columns are written or read.
        const auto stride = static_cast<std::size_t>(n);
        std::vector<double> buffer(3 * batch * stride, 0.0);
        for (std::size_t k = 0; k < batch; ++k) {
          rows(*xs[k], bs[k], 2 * static_cast<int>(ib) - 1,
               buffer.data() + 3 * k * stride);
        }
        bool swapped = false;
        for (int ci = static_cast<int>(ib); ci < static_cast<int>(ie); ++ci) {
          for (std::size_t k = 0; k < batch; ++k) {
            double* slot = buffer.data() + 3 * k * stride;
            double* up = swapped ? slot + 2 * stride : slot;
            double* mid = slot + stride;
            double* down = swapped ? slot : slot + 2 * stride;
            rows(*xs[k], bs[k], 2 * ci, mid);
            rows(*xs[k], bs[k], 2 * ci + 1, down);
            restrict_row(up, mid, down, coarse[k]->row(ci), nc);
          }
          swapped = !swapped;
        }
        for (Grid2D* e : zeroed) {
          std::fill(e->row(static_cast<int>(ib)), e->row(static_cast<int>(ie)),
                    0.0);
        }
      });
  for (Grid2D* c : coarse) zero_boundary(*c);
  for (Grid2D* e : zeroed) {
    std::fill_n(e->row(0), nc, 0.0);
    std::fill_n(e->row(nc - 1), nc, 0.0);
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
  PBMG_CHECK(coarse.size() == fine.size(),
             std::string(what) + ": span size mismatch");
  for (std::size_t k = 0; k < fine.size(); ++k) {
    PBMG_CHECK(coarse[k] != nullptr && fine[k] != nullptr,
               std::string(what) + ": null grid slot");
    check_valid(*fine[k], what);
    check_same_size(*fine[k], *fine[0], what);
    PBMG_CHECK(coarse[k]->n() == coarse_size(fine[k]->n()),
               std::string(what) + ": coarse grid has wrong size");
  }
  if (fine.empty()) return;
  const int n = fine[0]->n();
  const auto interpolate_row =
      by_width(packed_simd_width_supported(), &pk::interpolate_row<1>,
               &pk::interpolate_row<2>, &pk::interpolate_row<4>);
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2, cost_per_cell),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          for (std::size_t k = 0; k < fine.size(); ++k) {
            const Grid2D& c = *coarse[k];
            const double* c1 = i % 2 == 0 ? nullptr : c.row(i / 2 + 1);
            interpolate_row(c.row(i / 2), c1, fine[k]->row(i), assign, n);
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
  // Reduce via max encoded in a sum-free way: compute per-chunk maxima and
  // combine under a mutex inside the chunk function.
  std::mutex mutex;
  double result = 0.0;
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       double local = 0.0;
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* r = g.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           local = std::max(local, std::abs(r[j]));
                         }
                       }
                       std::lock_guard<std::mutex> lock(mutex);
                       result = std::max(result, local);
                     });
  return result;
}

}  // namespace pbmg::grid
