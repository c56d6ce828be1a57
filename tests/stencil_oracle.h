#pragma once

// Scalar reference loops for every pass the library runs over a
// StencilOp: the parity oracle of the variable-coefficient suites.  The
// library keeps one implementation of each pass, the pk:: rows and line
// bands (src/grid/packed_rows.h), which run at one lane under the legacy
// layout and at simd_width lanes under the packed one; these loops are
// the arithmetic the rows must reproduce bit for bit, written out one
// cell at a time on one thread and one iterate at a time:
//  - stencil_rows: the 5- and 9-point residual and apply, and Poisson's;
//  - sor_sweep: red-black SOR on 5-point operators and Poisson,
//    four-colour SOR on 9-point ones;
//  - line_sweep: the x and y zebra line passes, each line a Thomas solve
//    (solve_interior_line) over bands built on the fly.
// Every association below is the one the rows keep; a row that
// reassociates a chain, or a 5-point row that sums its diagonal in
// another order, fails the memcmp checks against these loops.

#include <vector>

#include "grid/grid2d.h"
#include "grid/level.h"
#include "grid/stencil_op.h"
#include "solvers/relax.h"

namespace pbmg::testing::oracle {

/// out = b − A·x (b non-null) or A·x at every interior cell, with a zero
/// ring.
inline void stencil_rows(const grid::StencilOp& op, const Grid2D& x,
                         const Grid2D* b, Grid2D& out) {
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  const double c = op.c();
  out.fill(0.0);
  for (int i = 1; i < n - 1; ++i) {
    const double* up = x.row(i - 1);
    const double* mid = x.row(i);
    const double* down = x.row(i + 1);
    const double* rhs = b != nullptr ? b->row(i) : nullptr;
    double* o = out.row(i);
    for (int j = 1; j < n - 1; ++j) {
      double av;
      if (op.is_poisson()) {
        av = (4.0 * mid[j] - up[j] - down[j] - mid[j - 1] - mid[j + 1]) *
             inv_h2;
      } else if (op.is_nine_point()) {
        const grid::NinePointRows rows(op, i);
        const double cross = rows.ay_up[j] * up[j] + rows.ay_dn[j] * down[j] +
                             rows.se_up[j - 1] * up[j - 1] +
                             rows.sw_up[j + 1] * up[j + 1] +
                             rows.sw_dn[j] * down[j - 1] +
                             rows.se_dn[j] * down[j + 1];
        const double nb =
            rows.ax[j - 1] * mid[j - 1] + rows.ax[j] * mid[j + 1] + cross;
        av = (rows.center[j] * mid[j] - nb) * inv_h2 + c * mid[j];
      } else {
        const double aw = op.ax(i, j - 1);
        const double ae = op.ax(i, j);
        const double an = op.ay(i - 1, j);
        const double as = op.ay(i, j);
        const double diag = ((aw + ae) + an) + as;
        av = (diag * mid[j] - an * up[j] - as * down[j] - aw * mid[j - 1] -
              ae * mid[j + 1]) *
                 inv_h2 +
             c * mid[j];
      }
      o[j] = rhs != nullptr ? rhs[j] - av : av;
    }
  }
}

/// One SOR sweep at `omega`: red then black cells ((i + j) even first) on
/// Poisson and 5-point operators; on 9-point ones the four colour
/// classes (row parity, column parity) in the order (even, even),
/// (even, odd), (odd, even), (odd, odd), since corner neighbours share
/// the red-black colour.
inline void sor_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      double omega) {
  const int n = x.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  if (op.is_nine_point()) {
    for (int color = 0; color < 4; ++color) {
      const int pi = color >> 1;
      const int pj = color & 1;
      for (int i = 2 - pi; i <= n - 2; i += 2) {
        const grid::NinePointRows rows(op, i);
        const double* up = x.row(i - 1);
        double* mid = x.row(i);
        const double* down = x.row(i + 1);
        const double* rhs = b.row(i);
        for (int j = 1 + ((1 + pj) & 1); j < n - 1; j += 2) {
          const double diag = rows.center[j] + ch2;
          const double cross =
              rows.ay_up[j] * up[j] + rows.ay_dn[j] * down[j] +
              rows.se_up[j - 1] * up[j - 1] + rows.sw_up[j + 1] * up[j + 1] +
              rows.sw_dn[j] * down[j - 1] + rows.se_dn[j] * down[j + 1];
          const double nb =
              rows.ax[j - 1] * mid[j - 1] + rows.ax[j] * mid[j + 1] + cross;
          mid[j] = keep * mid[j] + omega * (h2 * rhs[j] + nb) / diag;
        }
      }
    }
    return;
  }
  const double quarter_omega = 0.25 * omega;
  for (int parity = 0; parity <= 1; ++parity) {
    for (int i = 1; i < n - 1; ++i) {
      const double* up = x.row(i - 1);
      double* mid = x.row(i);
      const double* down = x.row(i + 1);
      const double* rhs = b.row(i);
      for (int j = 1 + ((i + 1 + parity) & 1); j < n - 1; j += 2) {
        if (op.is_poisson()) {
          mid[j] = keep * mid[j] + quarter_omega * (h2 * rhs[j] + up[j] +
                                                    down[j] + mid[j - 1] +
                                                    mid[j + 1]);
          continue;
        }
        const double aw = op.ax(i, j - 1);
        const double ae = op.ax(i, j);
        const double an = op.ay(i - 1, j);
        const double as = op.ay(i, j);
        const double diag = (((aw + ae) + an) + as) + ch2;
        mid[j] = keep * mid[j] +
                 omega *
                     (h2 * rhs[j] + an * up[j] + as * down[j] +
                      aw * mid[j - 1] + ae * mid[j + 1]) /
                     diag;
      }
    }
  }
}

/// Forward elimination and back substitution with the bands produced on
/// the fly, indexed by the interior position k in [1, n−2]: sub(k) is
/// the coefficient of u[k−1] (unused at k = 1), diag(k) the row
/// diagonal, sup(k) the coefficient of u[k+1] (unused at k = n−2);
/// rhs(k) carries the Dirichlet folds.  The solution goes out through
/// put.
template <typename Sub, typename Diag, typename Sup, typename Rhs,
          typename Put>
void solve_interior_line(int n, double* cp, double* dp, Sub sub, Diag diag,
                         Sup sup, Rhs rhs, Put put) {
  double inv = 1.0 / diag(1);
  cp[1] = sup(1) * inv;
  dp[1] = rhs(1) * inv;
  for (int k = 2; k <= n - 2; ++k) {
    const double s = sub(k);
    const double pivot = diag(k) - s * cp[k - 1];
    inv = 1.0 / pivot;
    cp[k] = sup(k) * inv;
    dp[k] = (rhs(k) - s * dp[k - 1]) * inv;
  }
  put(n - 2, dp[n - 2]);
  for (int k = n - 3; k >= 1; --k) {
    dp[k] -= cp[k] * dp[k + 1];
    put(k, dp[k]);
  }
}

/// Solves line l of a zebra pass: grid row l for x-lines, grid column l
/// for y-lines (`columns`).  Row i's 5-point system is
///   −aW·u[j−1] + (aW+aE+aN+aS+c·h²)·u[j] − aE·u[j+1]
///     = h²·b[j] + aN·up[j] + aS·down[j]  (+ Dirichlet folds at the ends),
/// and a column's the same in the ay bands.  A 9-point operator keeps
/// the in-line bands, takes its diagonal from the centre and folds the
/// corner terms into the right-hand side.  Requires grids (not Poisson).
inline void solve_line(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                       bool columns, int l, double* cp, double* dp) {
  const int n = x.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const Grid2D& ax = op.ax_grid();
  const Grid2D& ay = op.ay_grid();
  if (!columns) {
    const int i = l;
    const double* up = x.row(i - 1);
    double* mid = x.row(i);
    const double* down = x.row(i + 1);
    const double* rhs = b.row(i);
    const auto put = [&](int j, double value) { mid[j] = value; };
    if (op.is_nine_point()) {
      const grid::NinePointRows rows(op, i);
      solve_interior_line(
          n, cp, dp, [&](int j) { return -rows.ax[j - 1]; },
          [&](int j) { return rows.center[j] + ch2; },
          [&](int j) { return -rows.ax[j]; },
          [&](int j) {
            const double cross =
                rows.ay_up[j] * up[j] + rows.ay_dn[j] * down[j] +
                rows.se_up[j - 1] * up[j - 1] +
                rows.sw_up[j + 1] * up[j + 1] + rows.sw_dn[j] * down[j - 1] +
                rows.se_dn[j] * down[j + 1];
            double r = h2 * rhs[j] + cross;
            if (j == 1) r += rows.ax[0] * mid[0];
            if (j == n - 2) r += rows.ax[n - 2] * mid[n - 1];
            return r;
          },
          put);
      return;
    }
    const double* axr = ax.row(i);
    const double* ay_up = ay.row(i - 1);
    const double* ay_dn = ay.row(i);
    solve_interior_line(
        n, cp, dp, [&](int j) { return -axr[j - 1]; },
        [&](int j) {
          return axr[j - 1] + axr[j] + ay_up[j] + ay_dn[j] + ch2;
        },
        [&](int j) { return -axr[j]; },
        [&](int j) {
          double r = h2 * rhs[j] + ay_up[j] * up[j] + ay_dn[j] * down[j];
          if (j == 1) r += axr[0] * mid[0];
          if (j == n - 2) r += axr[n - 2] * mid[n - 1];
          return r;
        },
        put);
    return;
  }
  const int j = l;
  const auto sub = [&](int i) { return -ay(i - 1, j); };
  const auto sup = [&](int i) { return -ay(i, j); };
  const auto put = [&](int i, double value) { x(i, j) = value; };
  if (op.is_nine_point()) {
    const Grid2D& ase = op.ase_grid();
    const Grid2D& asw = op.asw_grid();
    const Grid2D& ctr = op.center_grid();
    solve_interior_line(
        n, cp, dp, sub, [&](int i) { return ctr(i, j) + ch2; }, sup,
        [&](int i) {
          double r = h2 * b(i, j) + ax(i, j - 1) * x(i, j - 1) +
                     ax(i, j) * x(i, j + 1) +
                     ase(i - 1, j - 1) * x(i - 1, j - 1) +
                     asw(i - 1, j + 1) * x(i - 1, j + 1) +
                     asw(i, j) * x(i + 1, j - 1) + ase(i, j) * x(i + 1, j + 1);
          if (i == 1) r += ay(0, j) * x(0, j);
          if (i == n - 2) r += ay(n - 2, j) * x(n - 1, j);
          return r;
        },
        put);
    return;
  }
  solve_interior_line(
      n, cp, dp, sub,
      [&](int i) {
        return ax(i, j - 1) + ax(i, j) + ay(i - 1, j) + ay(i, j) + ch2;
      },
      sup,
      [&](int i) {
        double r = h2 * b(i, j) + ax(i, j - 1) * x(i, j - 1) +
                   ax(i, j) * x(i, j + 1);
        if (i == 1) r += ay(0, j) * x(0, j);
        if (i == n - 2) r += ay(n - 2, j) * x(n - 1, j);
        return r;
      },
      put);
}

/// The operator whose grids the line oracle reads: `op` itself, or for
/// the Poisson fast path the 5-point operator whose grids hold 1.  Its
/// band values are exact small integers and a coupling times a value is
/// the value, so the Poisson bands, which read no grid, give its bits.
inline grid::StencilOp with_grids(const grid::StencilOp& op) {
  if (!op.is_poisson()) return op;
  return grid::StencilOp::variable(Grid2D(op.n(), 1.0), Grid2D(op.n(), 1.0),
                                   0.0);
}

/// One zebra pass: the odd lines, then the even ones, in order.
inline void line_pass(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      bool columns) {
  const grid::StencilOp with = with_grids(op);
  const int n = x.n();
  std::vector<double> cp(static_cast<std::size_t>(n));
  std::vector<double> dp(static_cast<std::size_t>(n));
  for (int parity = 1; parity >= 0; --parity) {
    for (int l = 2 - parity; l <= n - 2; l += 2) {
      solve_line(with, x, b, columns, l, cp.data(), dp.data());
    }
  }
}

/// One line sweep of `kind`: kLineX the x pass, kLineY the y pass,
/// kLineZebraAlt an x pass then a y pass.
inline void line_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                       solvers::RelaxKind kind) {
  if (kind != solvers::RelaxKind::kLineY) line_pass(op, x, b, false);
  if (kind != solvers::RelaxKind::kLineX) line_pass(op, x, b, true);
}

}  // namespace pbmg::testing::oracle
