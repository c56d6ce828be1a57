#include "solvers/relax.h"

#include <algorithm>
#include <cmath>

#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_rows.h"

namespace pbmg::solvers {

std::string to_string(RelaxKind kind) {
  switch (kind) {
    case RelaxKind::kSor: return "point_rb";
    case RelaxKind::kJacobi: return "jacobi";
    case RelaxKind::kLineX: return "line_x";
    case RelaxKind::kLineY: return "line_y";
    case RelaxKind::kLineZebraAlt: return "line_zebra_alt";
  }
  throw InvalidArgument("to_string: invalid RelaxKind");
}

RelaxKind parse_relax_kind(const std::string& name) {
  if (name == "point_rb") return RelaxKind::kSor;
  if (name == "jacobi") return RelaxKind::kJacobi;
  if (name == "line_x") return RelaxKind::kLineX;
  if (name == "line_y") return RelaxKind::kLineY;
  if (name == "line_zebra_alt") return RelaxKind::kLineZebraAlt;
  throw InvalidArgument(
      "unknown relaxation kind '" + name +
      "' (expected point_rb|jacobi|line_x|line_y|line_zebra_alt)");
}

double omega_opt(int n) {
  PBMG_CHECK(n >= 3, "omega_opt: n must be >= 3");
  const double h = mesh_width(n);
  return 2.0 / (1.0 + std::sin(M_PI * h));
}

void validate_relax_tunables(const RelaxTunables& tunables) {
  PBMG_CHECK(tunables.recurse_omega > 0.0 && tunables.recurse_omega < 2.0,
             "relax tunables: recurse_omega must be in (0, 2)");
  PBMG_CHECK(tunables.omega_scale >= 0.1 && tunables.omega_scale <= 1.5,
             "relax tunables: omega_scale must be in [0.1, 1.5]");
  grid::validate_kernel_policy(tunables.kernels);
}

double scaled_omega_opt(int n, double scale) {
  return std::min(std::max(omega_opt(n) * scale, 0.05), 1.999);
}

namespace {

using PoissonSorRow = void (*)(const double*, double*, const double*,
                               const double*, double, double, double, int,
                               int);

/// Smallest grid whose rows take the wide SOR row: on shorter rows its
/// per-row setup outweighs the few active cells it covers (one-thread
/// sweeps measure no faster than the scalar row at n = 33 and slower at
/// n = 17), so smaller grids keep the scalar row throughout.
constexpr int kWideSorMinN = 65;

/// One red-black Poisson SOR pass of colour `parity` over the iterates xs
/// (each against its own rhs in bs), row by row, every iterate's row i
/// before row i + 1.  A leaf's interior rows take the widest row kernel,
/// whose full-width loads read the neighbour rows' same-colour cells and
/// whose blended store rewrites this row's other colour — safe only
/// because this thread updates both neighbour rows itself, in order.
/// The leaf's first and last rows border rows another leaf may be
/// updating concurrently, so they take the W = 1 row, which reads and
/// writes nothing that leaf touches.
void poisson_sor_pass(std::span<Grid2D* const> xs,
                      std::span<const Grid2D* const> bs, double omega,
                      int parity, rt::Scheduler& sched) {
  const int n = xs[0]->n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double quarter_omega = 0.25 * omega;
  const double keep = 1.0 - omega;
  const int width = n < kWideSorMinN ? 1 : grid::packed_simd_width_supported();
  const PoissonSorRow wide =
      width == 4   ? &grid::pk::poisson_sor_row<4>
      : width == 2 ? &grid::pk::poisson_sor_row<2>
                   : &grid::pk::poisson_sor_row<1>;
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const PoissonSorRow row =
              i > ib && i + 1 < ie ? wide : &grid::pk::poisson_sor_row<1>;
          // parity 0 = "red" cells ((i + j) even), parity 1 = "black".
          const int j0 = 1 + ((i + 1 + parity) & 1);
          for (std::size_t k = 0; k < xs.size(); ++k) {
            row(xs[k]->row(i - 1), xs[k]->row(i), xs[k]->row(i + 1),
                bs[k]->row(i), h2, quarter_omega, keep, j0, n);
          }
        }
      });
}

}  // namespace

void sor_sweep(Grid2D& x, const Grid2D& b, double omega,
               rt::Scheduler& sched) {
  PBMG_CHECK(is_valid_grid_size(x.n()), "sor_sweep: grid size must be 2^k+1");
  PBMG_CHECK(x.n() == b.n(), "sor_sweep: grid size mismatch");
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  for (int parity = 0; parity <= 1; ++parity) {
    poisson_sor_pass(xs, bs, omega, parity, sched);
  }
}

void jacobi_sweep(Grid2D& x, const Grid2D& b, double omega, Grid2D& scratch,
                  rt::Scheduler& sched) {
  PBMG_CHECK(is_valid_grid_size(x.n()), "jacobi_sweep: grid size must be 2^k+1");
  PBMG_CHECK(x.n() == b.n() && x.n() == scratch.n(),
             "jacobi_sweep: grid size mismatch");
  const int n = x.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double quarter_omega = 0.25 * omega;
  const double keep = 1.0 - omega;
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* up = x.row(i - 1);
          const double* mid = x.row(i);
          const double* down = x.row(i + 1);
          const double* rhs = b.row(i);
          double* out = scratch.row(i);
          for (int j = 1; j < n - 1; ++j) {
            out[j] = keep * mid[j] +
                     quarter_omega * (h2 * rhs[j] + up[j] + down[j] +
                                      mid[j - 1] + mid[j + 1]);
          }
        }
      });
  // The sweep only wrote scratch's interior; carry the ring over before the
  // swap so boundary data survives.
  scratch.copy_boundary_from(x);
  x.swap(scratch);
}

namespace {

/// 9-point SOR needs four colours: diagonal neighbours share the red-black
/// parity (i+j changes by 0 or 2 across a corner), so a two-colour sweep
/// would race same-colour updates under the row-parallel scheduler.  With
/// colours (i mod 2, j mod 2) every stencil neighbour lies in a different
/// class, restoring the frozen-reads guarantee — the sweep is bitwise
/// deterministic under any thread count, like the red-black point sweeps.
/// Coefficient rows are resolved once per grid row and reused across the
/// K iterates.
void sor_sweep_nine_multi(const grid::StencilOp& op,
                          std::span<Grid2D* const> xs,
                          std::span<const Grid2D* const> bs, double omega,
                          rt::Scheduler& sched) {
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  for (int color = 0; color < 4; ++color) {
    const int pi = color >> 1;
    const int pj = color & 1;
    sched.parallel_for(
        1, n - 1, sched.grain_for(n - 2, n - 2),
        [&, pi, pj](std::int64_t ib, std::int64_t ie) {
          for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
            if ((i & 1) != pi) continue;
            const grid::NinePointRows rows(op, i);
            const int j0 = 1 + ((1 + pj) & 1);
            for (std::size_t k = 0; k < xs.size(); ++k) {
              const double* up = xs[k]->row(i - 1);
              double* mid = xs[k]->row(i);
              const double* down = xs[k]->row(i + 1);
              const double* rhs = bs[k]->row(i);
              for (int j = j0; j < n - 1; j += 2) {
                const double diag = rows.center[j] + ch2;
                PBMG_NUM_ASSERT(diag > 0.0,
                                "sor_sweep: non-positive stencil diagonal");
                const double nb = rows.neighbour_sum(up, mid, down, j);
                mid[j] = keep * mid[j] + omega * (h2 * rhs[j] + nb) / diag;
              }
            }
          }
        });
  }
}

/// 5-point red-black sweep over K iterates, each coefficient row loaded
/// once for all K.
void sor_sweep_5pt_multi(const grid::StencilOp& op,
                         std::span<Grid2D* const> xs,
                         std::span<const Grid2D* const> bs, double omega,
                         rt::Scheduler& sched) {
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  const Grid2D& ax = op.ax_grid();
  const Grid2D& ay = op.ay_grid();
  for (int parity = 0; parity <= 1; ++parity) {
    sched.parallel_for(
        1, n - 1, sched.grain_for(n - 2, n - 2),
        [&, parity](std::int64_t ib, std::int64_t ie) {
          for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
            const double* axr = ax.row(i);
            const double* ay_up = ay.row(i - 1);
            const double* ay_dn = ay.row(i);
            const int j0 = 1 + ((i + 1 + parity) & 1);
            for (std::size_t k = 0; k < xs.size(); ++k) {
              const double* up = xs[k]->row(i - 1);
              double* mid = xs[k]->row(i);
              const double* down = xs[k]->row(i + 1);
              const double* rhs = bs[k]->row(i);
              for (int j = j0; j < n - 1; j += 2) {
                const double aw = axr[j - 1];
                const double ae = axr[j];
                const double an = ay_up[j];
                const double as = ay_dn[j];
                const double diag = (((aw + ae) + an) + as) + ch2;
                PBMG_NUM_ASSERT(diag > 0.0,
                                "sor_sweep: non-positive stencil diagonal");
                mid[j] = keep * mid[j] +
                         omega *
                             (h2 * rhs[j] + an * up[j] + as * down[j] +
                              aw * mid[j - 1] + ae * mid[j + 1]) /
                             diag;
              }
            }
          }
        });
  }
}

}  // namespace

void sor_sweep_multi(const grid::StencilOp& op, std::span<Grid2D* const> xs,
                     std::span<const Grid2D* const> bs, double omega,
                     rt::Scheduler& sched,
                     const grid::KernelPolicy& kernels) {
  PBMG_CHECK(xs.size() == bs.size(), "sor_sweep: span size mismatch");
  PBMG_CHECK(is_valid_grid_size(op.n()), "sor_sweep: grid size must be 2^k+1");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               "sor_sweep: null grid slot");
    PBMG_CHECK(xs[k]->n() == op.n() && bs[k]->n() == op.n(),
               "sor_sweep: operator/grid size mismatch");
  }
  if (xs.empty()) return;
  if (op.is_poisson()) {
    for (int parity = 0; parity <= 1; ++parity) {
      poisson_sor_pass(xs, bs, omega, parity, sched);
    }
  } else if (kernels.layout == grid::StencilLayout::kPacked) {
    grid::packed_sor_sweep_multi(op, xs, bs, omega, sched,
                                 kernels.simd_width);
  } else if (op.is_nine_point()) {
    sor_sweep_nine_multi(op, xs, bs, omega, sched);
  } else {
    sor_sweep_5pt_multi(op, xs, bs, omega, sched);
  }
}

void sor_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
               double omega, rt::Scheduler& sched,
               const grid::KernelPolicy& kernels) {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  sor_sweep_multi(op, xs, bs, omega, sched, kernels);
}

}  // namespace pbmg::solvers
