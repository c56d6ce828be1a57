#include "solvers/line_relax.h"

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"

namespace pbmg::solvers {

namespace {

/// Forward elimination + back substitution with the bands produced on the
/// fly (no materialized sub/diag/sup arrays).  `cp` and `dp` are the
/// line's private Thomas workspaces (length n); the solved interior is
/// written back through `put`.  Band callbacks are indexed by the 1-based
/// interior position k in [1, n−2]:
///   sub(k)  coefficient of u[k−1]   (ignored at k = 1 — folded into rhs
///           by the caller, which adds the Dirichlet term there)
///   diag(k) the full row diagonal
///   sup(k)  coefficient of u[k+1]   (ignored at k = n−2, same folding)
template <typename Sub, typename Diag, typename Sup, typename Rhs,
          typename Put>
inline void solve_interior_line(int n, double* cp, double* dp, Sub sub,
                                Diag diag, Sup sup, Rhs rhs, Put put) {
  const double d1 = diag(1);
  PBMG_NUM_ASSERT(d1 > 0.0, "line_relax: non-positive diagonal");
  double inv = 1.0 / d1;
  cp[1] = sup(1) * inv;
  dp[1] = rhs(1) * inv;
  for (int k = 2; k <= n - 2; ++k) {
    const double s = sub(k);
    const double pivot = diag(k) - s * cp[k - 1];
    PBMG_NUM_ASSERT(pivot > 0.0, "line_relax: non-positive pivot");
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

/// The lines of one zebra parity: first, first + 2, …, n − 2, with
/// first = 1 for the odd lines and 2 for the even ones.  A pass's region
/// hands out only these lines and counts only their cells.
struct ZebraLines {
  int first;
  int count;
};

ZebraLines zebra_lines(int n, int parity) {
  const int first = parity == 1 ? 1 : 2;
  return {first, first <= n - 2 ? (n - 2 - first) / 2 + 1 : 0};
}

/// Solves line `l` of one zebra pass against the true per-edge
/// coefficients: grid row l for x-lines, grid column l for y-lines
/// (`columns`).  Row i's 5-point system is
///   −aW·u[j−1] + (aW+aE+aN+aS+c·h²)·u[j] − aE·u[j+1]
///     = h²·b[j] + aN·up[j] + aS·down[j]  (+ Dirichlet folds at the ends),
/// and a column's the same in the ay bands.  A 9-point operator keeps the
/// in-line bands (corner couplings reach only the neighbouring lines, so
/// zebra parity still freezes every read), takes its diagonal from the
/// explicit centre and folds the corner terms into the right-hand side.
void solve_line(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
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
            double r = h2 * rhs[j] + rows.cross_row_sum(up, down, j);
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

/// One zebra pass of the legacy layout over one iterate: the odd lines,
/// then the even ones, each parity's lines solved in parallel (they read
/// only the frozen lines of the other parity).  Line l's Thomas
/// workspaces are row l of two leased grids.
void legacy_line_pass(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      bool columns, rt::Scheduler& sched,
                      grid::ScratchPool& pool) {
  const int n = x.n();
  auto cp_lease = pool.acquire(n);
  auto dp_lease = pool.acquire(n);
  Grid2D& cpg = cp_lease.get();
  Grid2D& dpg = dp_lease.get();
  for (int parity = 1; parity >= 0; --parity) {
    const ZebraLines lines = zebra_lines(n, parity);
    sched.parallel_for(
        0, lines.count, sched.grain_for(lines.count, n - 2, grid::kLineCost),
        [&, lines](std::int64_t lb, std::int64_t le) {
          for (int line = static_cast<int>(lb); line < static_cast<int>(le);
               ++line) {
            const int l = lines.first + 2 * line;
            solve_line(op, x, b, columns, l, cpg.row(l), dpg.row(l));
          }
        });
  }
}

void check_line_operands(const Grid2D& x, const Grid2D& b, RelaxKind kind) {
  PBMG_CHECK(is_line_relax(kind),
             "line_relax_sweep: kind must be a line variant");
  PBMG_CHECK(is_valid_grid_size(x.n()),
             "line_relax_sweep: grid size must be 2^k+1");
  PBMG_CHECK(x.n() == b.n(), "line_relax_sweep: grid size mismatch");
}

bool has_x_pass(RelaxKind kind) {
  return kind == RelaxKind::kLineX || kind == RelaxKind::kLineZebraAlt;
}

bool has_y_pass(RelaxKind kind) {
  return kind == RelaxKind::kLineY || kind == RelaxKind::kLineZebraAlt;
}

}  // namespace

void line_relax_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      RelaxKind kind, rt::Scheduler& sched,
                      grid::ScratchPool& pool,
                      const grid::KernelPolicy& kernels) {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  line_relax_sweep_multi(op, xs, bs, kind, sched, pool, kernels);
}

void line_relax_sweep_multi(const grid::StencilOp& op,
                            std::span<Grid2D* const> xs,
                            std::span<const Grid2D* const> bs, RelaxKind kind,
                            rt::Scheduler& sched, grid::ScratchPool& pool,
                            const grid::KernelPolicy& kernels) {
  PBMG_CHECK(xs.size() == bs.size(), "line_relax_sweep: span size mismatch");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               "line_relax_sweep: null grid slot");
    check_line_operands(*xs[k], *bs[k], kind);
    PBMG_CHECK(op.n() == xs[k]->n(),
               "line_relax_sweep: operator/grid size mismatch");
  }
  if (xs.empty()) return;
  if (op.is_poisson() || kernels.layout == grid::StencilLayout::kPacked) {
    // Poisson, under either layout, and the packed layout hand the whole
    // batch to the packed passes (grid/packed_kernels.h).  The zebra
    // order per iterate (x pass then y pass, odd lines then even) holds
    // inside each pass, so every slot is bitwise its solo sweep.
    if (has_x_pass(kind)) {
      grid::packed_line_multi(op, xs, bs, /*columns=*/false, sched, pool,
                              kernels.simd_width);
    }
    if (has_y_pass(kind)) {
      grid::packed_line_multi(op, xs, bs, /*columns=*/true, sched, pool,
                              kernels.simd_width);
    }
    return;
  }
  // The legacy layout's passes solve one iterate; they sweep the batch an
  // iterate at a time.
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (has_x_pass(kind)) {
      legacy_line_pass(op, *xs[k], *bs[k], /*columns=*/false, sched, pool);
    }
    if (has_y_pass(kind)) {
      legacy_line_pass(op, *xs[k], *bs[k], /*columns=*/true, sched, pool);
    }
  }
}

}  // namespace pbmg::solvers
