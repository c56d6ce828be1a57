#include "solvers/relax.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_rows.h"
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

/// Smallest grid whose rows take the wide SOR row: on shorter rows its
/// per-row setup outweighs the few active cells it covers (one-thread
/// sweeps measure no faster than the scalar row at n = 33 and slower at
/// n = 17), so smaller grids keep the scalar row throughout.
constexpr int kWideSorMinN = 65;

/// Blocks per scheduler thread in a wavefront pass: enough that work
/// stealing evens out a slow block, few enough that the triangles at the
/// block edges stay a small share of the pass.
constexpr int kBlocksPerThread = 4;

/// The pk:: rows a Poisson pass on side n runs, at the widest supported
/// width (every width gives the scalar row's bits).
class PoissonRows {
 public:
  PoissonRows(int n, double omega)
      : n_(n),
        nc_(coarse_size(n)),
        h2_(mesh_width(n) * mesh_width(n)),
        inv_h2_(static_cast<double>(n - 1) * static_cast<double>(n - 1)),
        quarter_omega_(0.25 * omega),
        keep_(1.0 - omega),
        wide_sor_(grid::by_width(
            n < kWideSorMinN ? 1 : grid::packed_simd_width_supported(),
            &grid::pk::poisson_sor_row<1>, &grid::pk::poisson_sor_row<2>,
            &grid::pk::poisson_sor_row<4>)),
        residual_(grid::by_width(grid::packed_simd_width_supported(),
                                 &grid::pk::poisson_residual_row<1>,
                                 &grid::pk::poisson_residual_row<2>,
                                 &grid::pk::poisson_residual_row<4>)),
        restrict_(grid::by_width(grid::packed_simd_width_supported(),
                                 &grid::pk::restrict_row<1>,
                                 &grid::pk::restrict_row<2>,
                                 &grid::pk::restrict_row<4>)),
        interpolate_(grid::by_width(grid::packed_simd_width_supported(),
                                    &grid::pk::interpolate_row<1>,
                                    &grid::pk::interpolate_row<2>,
                                    &grid::pk::interpolate_row<4>)) {}

  int n() const { return n_; }
  int nc() const { return nc_; }

  /// One SOR colour pass over row i: parity 0 updates the "red" cells
  /// ((i + j) even), parity 1 the "black" ones.  The wide row's
  /// full-width loads read rows i ± 1 whole and its blended store
  /// rewrites row i's other colour, so it is safe only where no other
  /// thread touches those rows; a `narrow` row takes the W = 1 row, which
  /// reads only the other colour of rows i ± 1 and writes only the cells
  /// it updates.
  void sor(Grid2D& x, const Grid2D& b, int i, int parity,
           bool narrow) const {
    const auto row = narrow ? &grid::pk::poisson_sor_row<1> : wide_sor_;
    row(x.row(i - 1), x.row(i), x.row(i + 1), b.row(i), h2_, quarter_omega_,
        keep_, 1 + ((i + 1 + parity) & 1), n_);
  }

  /// Row i of b − A·x into out[1 … n − 2].
  void residual(const Grid2D& x, const Grid2D& b, int i, double* out) const {
    residual_(x.row(i - 1), x.row(i), x.row(i + 1), b.row(i), out, inv_h2_,
              n_);
  }

  /// Full weighting of fine rows up/mid/down onto coarse row `out`.
  void restrict_rows(const double* up, const double* mid, const double* down,
                     double* out) const {
    restrict_(up, mid, down, out, nc_);
  }

  /// x row i += P·e.
  void interpolate_add(const Grid2D& e, Grid2D& x, int i) const {
    interpolate_(e.row(i / 2), i % 2 == 0 ? nullptr : e.row(i / 2 + 1),
                 x.row(i), /*assign=*/false, n_);
  }

 private:
  int n_;
  int nc_;
  double h2_;
  double inv_h2_;
  double quarter_omega_;
  double keep_;
  decltype(&grid::pk::poisson_sor_row<1>) wide_sor_;
  decltype(&grid::pk::poisson_residual_row<1>) residual_;
  decltype(&grid::pk::restrict_row<1>) restrict_;
  decltype(&grid::pk::interpolate_row<1>) interpolate_;
};

/// Rows [begin, end) of one stage in one run of a wavefront.
struct StageRows {
  int begin;
  int end;
};

/// One run of a wavefront over the interior rows [1, n − 1): a block of
/// rows [lo, hi) in the first region, or, when lo == hi, the triangle at
/// the edge row lo between two blocks in the second.
struct WaveRun {
  int n;
  int lo;
  int hi;

  bool triangle() const { return lo == hi; }

  /// The rows stage s (lag s behind stage 0) covers.  A block's stage s
  /// stops s rows short of each edge it shares with another block, so
  /// every row it reads belongs to the block and its earlier stages have
  /// finished it; the ring rows 0 and n − 1 never change, so a block
  /// runs every stage up to them.  The triangle at edge r covers the rows
  /// both blocks left: [r − s, r + s).
  StageRows rows(int s) const {
    if (triangle()) return {lo - s, lo + s};
    return {lo > 1 ? lo + s : lo, hi < n - 1 ? hi - s : hi};
  }
};

/// Calls stage(s, i) for every stage s and row i of `rows` in wavefront
/// order: step t runs stage s at row t − s, stages in order.  Stage s at
/// row i may read stage s − 1's rows i − 1 … i + 1, which are done by
/// then, and stage s − 1 reaches row i + 2 only after it.
template <std::size_t Stages, typename Stage>
void for_each_step(const std::array<StageRows, Stages>& rows,
                   const Stage& stage) {
  int first = std::numeric_limits<int>::max();
  int last = std::numeric_limits<int>::min();
  for (std::size_t s = 0; s < Stages; ++s) {
    if (rows[s].begin < rows[s].end) {
      first = std::min(first, rows[s].begin + static_cast<int>(s));
      last = std::max(last, rows[s].end + static_cast<int>(s));
    }
  }
  for (int t = first; t < last; ++t) {
    for (std::size_t s = 0; s < Stages; ++s) {
      const int i = t - static_cast<int>(s);
      if (i >= rows[s].begin && i < rows[s].end) stage(static_cast<int>(s), i);
    }
  }
}

/// Runs a pass of depth + 1 stages over the interior rows of side n as a
/// row wavefront: run(WaveRun) once per block in one parallel region,
/// then once per triangle in a second, so no run ever waits on another.
/// A triangle touches only rows near its edge r (the head's, the widest,
/// reads r − 5 … r + 4 and writes r − 1 and r), so blocks of at least
/// 2·depth + 2 rows keep concurrent triangles apart.  Below the
/// scheduler's sequential cutoff, or on one thread, the pass is one block
/// run inline.
template <typename Run>
void wavefront(int n, int depth, rt::Scheduler& sched, const Run& run) {
  const int rows = n - 2;
  int blocks = 1;
  if (sched.thread_count() > 1 && sched.grain_for(rows, rows) < rows) {
    blocks = std::clamp(rows / (2 * depth + 2), 1,
                        kBlocksPerThread * sched.thread_count());
  }
  const auto edge = [rows, blocks](std::int64_t b) {
    return 1 + static_cast<int>(b * rows / blocks);
  };
  if (blocks == 1) {
    run(WaveRun{n, 1, n - 1});
    return;
  }
  sched.parallel_for(0, blocks, 1, [&](std::int64_t bb, std::int64_t be) {
    for (std::int64_t b = bb; b < be; ++b) {
      run(WaveRun{n, edge(b), edge(b + 1)});
    }
  });
  sched.parallel_for(1, blocks, 1, [&](std::int64_t bb, std::int64_t be) {
    for (std::int64_t b = bb; b < be; ++b) {
      run(WaveRun{n, edge(b), edge(b)});
    }
  });
}

/// The Poisson SOR sweep: red, then black one row behind.  Red runs
/// narrow rows at a block's edges, which border another block's red rows.
void poisson_sweep(std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, double omega,
                   rt::Scheduler& sched) {
  const PoissonRows rows(xs[0]->n(), omega);
  wavefront(rows.n(), 1, sched, [&](const WaveRun& run) {
    for_each_step<2>({run.rows(0), run.rows(1)}, [&](int s, int i) {
      const bool narrow = s == 0 && (i == run.lo || i == run.hi - 1);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        rows.sor(*xs[k], *bs[k], i, s, narrow);
      }
    });
  });
}

/// The fused Poisson head: red, black one row behind, and the residual
/// one row further, each slot's residual rows kept in a three-row ring
/// and restricted as each coarse row's third row completes.  A block
/// restricts the coarse rows whose three residual rows it finishes
/// itself; the triangle at an edge restricts the rest between its two
/// blocks, recomputing the residual rows it shares with them (the same
/// bits: a residual row is a function of final x rows).  Each run zeroes
/// the corrections' rows of the coarse rows it restricts, and the first
/// and last blocks the coarse ring rows.
void poisson_head(std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, double omega,
                  std::span<Grid2D* const> rcs, std::span<Grid2D* const> es,
                  rt::Scheduler& sched) {
  const PoissonRows rows(xs[0]->n(), omega);
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
  wavefront(n, 2, sched, [&](const WaveRun& run) {
    // Coarse row ci weighs residual rows 2ci − 1 … 2ci + 1.
    const StageRows fine = run.rows(2);
    const int c0 = run.triangle() ? fine.begin / 2 : (fine.begin + 2) / 2;
    const int c1 = run.triangle() ? (fine.end + 2) / 2 : fine.end / 2;
    const StageRows residual_rows =
        c0 < c1 ? StageRows{2 * c0 - 1, 2 * c1} : StageRows{0, 0};
    // Only the interior columns of the ring are written or read.
    const std::unique_ptr<double[]> ring(new double[3 * batch * stride]);
    for_each_step<3>(
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
  });
}

/// The fused Poisson tail: the interpolated correction, red one row
/// behind and black one row further.  Red and black stay a row inside
/// their block, so they never border another block's rows.
void poisson_tail(std::span<const Grid2D* const> es,
                  std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, double omega,
                  rt::Scheduler& sched) {
  const PoissonRows rows(xs[0]->n(), omega);
  wavefront(rows.n(), 2, sched, [&](const WaveRun& run) {
    for_each_step<3>(
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
  poisson_sweep(xs, bs, omega, sched);
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
    poisson_sweep(xs, bs, omega, sched);
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

/// The Poisson point-SOR body halves run fused; any other operator or
/// smoother keeps its separate passes.  A smoother that is not a line
/// smoother runs point SOR (tables can name no other).
bool fused_body(const grid::StencilOp& op, RelaxKind smoother) {
  return op.is_poisson() && !is_line_relax(smoother);
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
  if (fused_body(op, smoother)) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    poisson_head(xs, bs, omega, rcs, es, sched);
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
  if (fused_body(op, smoother)) {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kRelax, level);
    poisson_tail(es, xs, bs, omega, sched);
    return;
  }
  {
    obs::ScopedPhaseTimer timer(profile, obs::Phase::kInterpolate, level);
    for (std::size_t k = 0; k < xs.size(); ++k) {
      grid::interpolate_add(*es[k], *xs[k], sched);
    }
  }
  relax_multi(op, xs, bs, smoother, omega, sched, pool, kernels, profile,
              level);
}

}  // namespace pbmg::solvers
