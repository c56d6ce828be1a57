#include "solvers/relax.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/wavefront.h"
#include "obs/phase_profile.h"
#include "solvers/line_relax.h"

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

/// The fused head: SOR stage 0, stage 1 one row behind, and the residual
/// one row further, each slot's residual rows kept in a three-row ring
/// and restricted as each coarse row's third row completes.  A block
/// restricts the coarse rows whose three residual rows it finishes
/// itself; the triangle at an edge restricts the rest between its two
/// blocks, recomputing the residual rows it shares with them (the same
/// bits: a residual row is a function of final x rows).  Each run zeroes
/// the corrections' rows of the coarse rows it restricts, and the first
/// and last blocks the coarse ring rows.
void fused_head(const grid::WaveRows& rows, std::span<Grid2D* const> xs,
                std::span<const Grid2D* const> bs,
                std::span<Grid2D* const> rcs, std::span<Grid2D* const> es,
                rt::Scheduler& sched) {
  const int n = rows.n();
  const int nc = rows.nc();
  const std::size_t stride = static_cast<std::size_t>(n);
  const std::size_t batch = xs.size();
  const auto zero_coarse_row = [&](int ci) {
    for (std::size_t k = 0; k < batch; ++k) {
      std::fill_n(rcs[k]->row(ci), nc, 0.0);
      std::fill_n(es[k]->row(ci), nc, 0.0);
    }
  };
  const auto run_head = [&](const grid::WaveRun& run) {
    // Coarse row ci weighs residual rows 2ci − 1 … 2ci + 1.
    const grid::StageRows fine = run.rows(2);
    const int c0 = run.triangle() ? fine.begin / 2 : (fine.begin + 2) / 2;
    const int c1 = run.triangle() ? (fine.end + 2) / 2 : fine.end / 2;
    const grid::StageRows residual_rows =
        c0 < c1 ? grid::StageRows{2 * c0 - 1, 2 * c1}
                : grid::StageRows{0, 0};
    // Only the interior columns of the ring are written or read.
    const std::unique_ptr<double[]> ring(new double[3 * batch * stride]);
    grid::for_each_step<3>(
        {run.rows(0), run.rows(1), residual_rows}, [&](int s, int i) {
          if (s < 2) {
            const bool narrow = s == 0 && (i == run.lo || i == run.hi - 1);
            for (std::size_t k = 0; k < batch; ++k) {
              rows.sor(*xs[k], *bs[k], i, s, narrow);
            }
            return;
          }
          const bool restrict_now = i % 2 == 1 && i > residual_rows.begin;
          for (std::size_t k = 0; k < batch; ++k) {
            double* slot = ring.get() + 3 * k * stride;
            rows.residual(*xs[k], *bs[k], i, slot + (i % 3) * stride);
            if (!restrict_now) continue;
            const int ci = (i - 1) / 2;
            double* out = rcs[k]->row(ci);
            rows.restrict_rows(slot + ((i - 2) % 3) * stride,
                               slot + ((i - 1) % 3) * stride,
                               slot + (i % 3) * stride, out);
            out[0] = 0.0;
            out[nc - 1] = 0.0;
            std::fill_n(es[k]->row(ci), nc, 0.0);
          }
        });
    if (run.triangle()) return;
    if (run.lo == 1) zero_coarse_row(0);
    if (run.hi == n - 1) zero_coarse_row(nc - 1);
  };
  grid::wavefront(n, 2, rows.sor_cost(batch), sched, run_head);
}

/// The fused tail: the interpolated correction, SOR stage 0 one row
/// behind and stage 1 one row further.  The SOR stages stay a row inside
/// their block, so they never border another block's rows.
void fused_tail(const grid::WaveRows& rows, std::span<const Grid2D* const> es,
                std::span<Grid2D* const> xs,
                std::span<const Grid2D* const> bs, rt::Scheduler& sched) {
  grid::wavefront(
      rows.n(), 2, rows.sor_cost(xs.size()), sched,
      [&](const grid::WaveRun& run) {
        grid::for_each_step<3>(
            {run.rows(0), run.rows(1), run.rows(2)}, [&](int s, int i) {
              for (std::size_t k = 0; k < xs.size(); ++k) {
                if (s == 0) {
                  rows.interpolate_add(*es[k], *xs[k], i);
                } else {
                  rows.sor(*xs[k], *bs[k], i, s - 1, /*narrow=*/false);
                }
              }
            });
      });
}

}  // namespace

void sor_sweep(Grid2D& x, const Grid2D& b, double omega,
               rt::Scheduler& sched) {
  PBMG_CHECK(is_valid_grid_size(x.n()), "sor_sweep: grid size must be 2^k+1");
  PBMG_CHECK(x.n() == b.n(), "sor_sweep: grid size mismatch");
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  grid::sor_wavefront(grid::WaveRows(x.n(), omega), xs, bs, sched);
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
/// K iterates.  A colour's region hands out only its rows, i = 2r + 2 − pi.
void sor_sweep_nine_multi(const grid::StencilOp& op,
                          std::span<Grid2D* const> xs,
                          std::span<const Grid2D* const> bs, double omega,
                          rt::Scheduler& sched) {
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  const auto batch = static_cast<std::int64_t>(xs.size());
  for (int color = 0; color < 4; ++color) {
    const int pi = color >> 1;
    const int pj = color & 1;
    const int colour_rows = (n - 2 + pi) / 2;
    sched.parallel_for(
        0, colour_rows,
        sched.grain_for(colour_rows, n - 2, grid::kSorCost9 * batch),
        [&, pi, pj](std::int64_t rb, std::int64_t re) {
          for (int r = static_cast<int>(rb); r < static_cast<int>(re); ++r) {
            const int i = 2 * r + 2 - pi;
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
  const auto batch = static_cast<std::int64_t>(xs.size());
  for (int parity = 0; parity <= 1; ++parity) {
    sched.parallel_for(
        1, n - 1, sched.grain_for(n - 2, n - 2, grid::kSorCost5 * batch),
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
    grid::sor_wavefront(grid::WaveRows(op.n(), omega), xs, bs, sched);
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

namespace {

/// Checks a RECURSE half's fine and coarse spans and returns the level it
/// times.
int body_level(const grid::StencilOp& op, std::span<Grid2D* const> xs,
               std::span<const Grid2D* const> bs,
               std::initializer_list<std::span<const Grid2D* const>> coarse,
               const char* what) {
  PBMG_CHECK(is_valid_grid_size(op.n()),
             std::string(what) + ": grid size must be 2^k+1");
  PBMG_CHECK(xs.size() == bs.size(),
             std::string(what) + ": span size mismatch");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               std::string(what) + ": null grid slot");
    PBMG_CHECK(xs[k]->n() == op.n() && bs[k]->n() == op.n(),
               std::string(what) + ": operator/grid size mismatch");
  }
  for (const std::span<const Grid2D* const> grids : coarse) {
    PBMG_CHECK(grids.size() == xs.size(),
               std::string(what) + ": span size mismatch");
    for (const Grid2D* g : grids) {
      PBMG_CHECK(g != nullptr && g->n() == coarse_size(op.n()),
                 std::string(what) + ": coarse grid has wrong size");
    }
  }
  return level_of_size(op.n());
}

/// Point-SOR body halves run fused on the Poisson operator and on the
/// packed layout; a line smoother, or a variable-coefficient operator
/// under the legacy layout, keeps its separate passes.  A smoother that
/// is not a line smoother runs point SOR (tables can name no other).
bool fused_body(const grid::StencilOp& op, RelaxKind smoother,
                const grid::KernelPolicy& kernels) {
  return !is_line_relax(smoother) &&
         (op.is_poisson() || kernels.layout == grid::StencilLayout::kPacked);
}

/// One sweep of `smoother` over the batch, timed as its phase.
void relax_multi(const grid::StencilOp& op, std::span<Grid2D* const> xs,
                 std::span<const Grid2D* const> bs, RelaxKind smoother,
                 double omega, rt::Scheduler& sched, grid::ScratchPool& pool,
                 const grid::KernelPolicy& kernels,
                 obs::PhaseProfile* profile, int level) {
  if (is_line_relax(smoother)) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kLineSolve, level);
    line_relax_sweep_multi(op, xs, bs, smoother, sched, pool, kernels);
  } else {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    sor_sweep_multi(op, xs, bs, omega, sched, kernels);
  }
}

}  // namespace

void recurse_head(const grid::StencilOp& op, std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, RelaxKind smoother,
                  double omega, std::span<Grid2D* const> rcs,
                  std::span<Grid2D* const> es, rt::Scheduler& sched,
                  grid::ScratchPool& pool, const grid::KernelPolicy& kernels,
                  obs::PhaseProfile* profile) {
  const int level =
      body_level(op, xs, bs, {{rcs.data(), rcs.size()}, {es.data(), es.size()}},
                 "recurse_head");
  if (xs.empty()) return;
  if (fused_body(op, smoother, kernels)) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    fused_head(grid::WaveRows(op, omega, kernels.simd_width), xs, bs, rcs, es,
               sched);
    return;
  }
  relax_multi(op, xs, bs, smoother, omega, sched, pool, kernels, profile,
              level);
  obs::ScopedPhaseTimer timer(profile, obs::Phase::kRestrict, level);
  grid::restrict_residual_multi(op, {xs.data(), xs.size()}, bs, rcs, sched,
                                kernels, es);
}

void recurse_tail(const grid::StencilOp& op,
                  std::span<const Grid2D* const> es,
                  std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, RelaxKind smoother,
                  double omega, rt::Scheduler& sched, grid::ScratchPool& pool,
                  const grid::KernelPolicy& kernels,
                  obs::PhaseProfile* profile) {
  const int level = body_level(op, xs, bs, {es}, "recurse_tail");
  if (xs.empty()) return;
  if (fused_body(op, smoother, kernels)) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    fused_tail(grid::WaveRows(op, omega, kernels.simd_width), es, xs, bs,
               sched);
    return;
  }
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    grid::interpolate_add_multi(es, xs, sched);
  }
  relax_multi(op, xs, bs, smoother, omega, sched, pool, kernels, profile,
              level);
}

}  // namespace pbmg::solvers
