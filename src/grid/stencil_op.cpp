#include "grid/stencil_op.h"

#include <algorithm>
#include <cmath>

#include "grid/level.h"
#include "grid/packed_stencil.h"
#include "runtime/scheduler.h"

namespace pbmg::grid {

namespace {

/// Series (harmonic) combination of two fine edges spanning one coarse
/// edge: the effective conductance of two unit-length conductors in
/// series, scaled back to the coarse edge length.  Exact for constant
/// coefficients: H(a, a) = a.  The construction-time positivity scan
/// already rejects every non-positive edge; this PBMG_CHECK keeps a
/// degenerate pair (a1 + a2 <= 0) from producing an Inf/NaN coefficient
/// should an edge ever reach here unscanned.
double series(double a1, double a2) {
  const double sum = a1 + a2;
  PBMG_CHECK(sum > 0.0, "StencilOp: degenerate edge pair in restriction");
  return 2.0 * a1 * a2 / sum;
}

// Both scans run in every build: a zero, negative or NaN edge (or a
// non-positive centre) would otherwise be accepted by Release and divided
// by in the first sweep.  They are one O(n²) pass per construction —
// operator binding and coarsening, never a solve.

void check_coefficients(const Grid2D& ax, const Grid2D& ay, int n) {
  // Only edges adjacent to interior equations matter, but a single bad
  // value anywhere is almost always a construction bug, so every stored
  // edge is scanned.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j + 1 < n; ++j) {
      PBMG_CHECK(std::isfinite(ax(i, j)) && ax(i, j) > 0.0,
                 "StencilOp: ax edge coefficient must be finite and > 0");
      PBMG_CHECK(std::isfinite(ay(j, i)) && ay(j, i) > 0.0,
                 "StencilOp: ay edge coefficient must be finite and > 0");
    }
  }
}

void check_nine_point(const Grid2D& ax, const Grid2D& ay, const Grid2D& ase,
                      const Grid2D& asw, const Grid2D& center, int n) {
  // Unlike the 5-point factory, couplings may legitimately be negative
  // here (mixed-derivative corners; Galerkin coarse operators need not
  // be M-matrices even on their edges), so only finiteness is scanned;
  // the centre must be a positive diagonal.  Edge bounds mirror
  // check_coefficients so every stored edge is covered.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j + 1 < n; ++j) {
      PBMG_CHECK(std::isfinite(ax(i, j)),
                 "StencilOp: ax edge coupling must be finite");
      PBMG_CHECK(std::isfinite(ay(j, i)),
                 "StencilOp: ay edge coupling must be finite");
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = 0; j + 1 < n; ++j) {
      PBMG_CHECK(std::isfinite(ase(i, j)),
                 "StencilOp: ase corner coupling must be finite");
      PBMG_CHECK(std::isfinite(asw(i, j + 1)),
                 "StencilOp: asw corner coupling must be finite");
    }
  }
  for (int i = 1; i + 1 < n; ++i) {
    for (int j = 1; j + 1 < n; ++j) {
      PBMG_CHECK(std::isfinite(center(i, j)) && center(i, j) > 0.0,
                 "StencilOp: centre coefficient must be finite and > 0");
    }
  }
}

}  // namespace

std::string to_string(Coarsening mode) {
  switch (mode) {
    case Coarsening::kAverage: return "avg";
    case Coarsening::kRap: return "rap";
  }
  throw InvalidArgument("to_string: invalid Coarsening");
}

Coarsening parse_coarsening(const std::string& name) {
  if (name == "avg") return Coarsening::kAverage;
  if (name == "rap") return Coarsening::kRap;
  throw InvalidArgument("unknown coarsening '" + name +
                        "' (expected avg|rap)");
}

std::string to_string(StencilLayout layout) {
  switch (layout) {
    case StencilLayout::kLegacy: return "legacy";
    case StencilLayout::kPacked: return "packed";
  }
  throw InvalidArgument("to_string: invalid StencilLayout");
}

StencilLayout parse_stencil_layout(const std::string& name) {
  if (name == "legacy") return StencilLayout::kLegacy;
  if (name == "packed") return StencilLayout::kPacked;
  throw InvalidArgument("unknown stencil layout '" + name +
                        "' (expected legacy|packed)");
}

void validate_kernel_policy(const KernelPolicy& policy) {
  // A deserialized byte is not necessarily a valid enumerator.
  (void)to_string(policy.layout);
  PBMG_CHECK(policy.simd_width == 1 || policy.simd_width == 2 ||
                 policy.simd_width == 4,
             "kernel policy: simd_width must be 1, 2 or 4");
}

const PackedStencil& StencilOp::packed() const {
  static const PackedStencil empty;
  return empty;
}

std::size_t StencilOp::bytes() const {
  std::size_t total = 0;
  if (coeff_ != nullptr) {
    total += 2 * coeff_->ax.size() * sizeof(double);
  }
  if (corner_ != nullptr) {
    total += 3 * corner_->ase.size() * sizeof(double);
  }
  return total;
}

StencilOp StencilOp::poisson(int n) {
  PBMG_CHECK(is_valid_grid_size(n), "StencilOp::poisson: n must be 2^k + 1");
  StencilOp op;
  op.n_ = n;
  return op;
}

StencilOp StencilOp::variable(Grid2D ax, Grid2D ay, double c) {
  const int n = ax.n();
  PBMG_CHECK(is_valid_grid_size(n), "StencilOp::variable: n must be 2^k + 1");
  PBMG_CHECK(ay.n() == n, "StencilOp::variable: ax/ay size mismatch");
  PBMG_CHECK(std::isfinite(c) && c >= 0.0,
             "StencilOp::variable: c must be finite and >= 0");
  check_coefficients(ax, ay, n);
  StencilOp op;
  op.n_ = n;
  op.c_ = c;
  auto coeff = std::make_shared<Coefficients>();
  coeff->ax = std::move(ax);
  coeff->ay = std::move(ay);
  op.coeff_ = std::move(coeff);
  return op;
}

StencilOp StencilOp::nine_point(Grid2D ax, Grid2D ay, Grid2D ase, Grid2D asw,
                                Grid2D center, double c) {
  const int n = ax.n();
  PBMG_CHECK(is_valid_grid_size(n),
             "StencilOp::nine_point: n must be 2^k + 1");
  PBMG_CHECK(ay.n() == n && ase.n() == n && asw.n() == n && center.n() == n,
             "StencilOp::nine_point: coefficient grid size mismatch");
  PBMG_CHECK(std::isfinite(c) && c >= 0.0,
             "StencilOp::nine_point: c must be finite and >= 0");
  check_nine_point(ax, ay, ase, asw, center, n);
  StencilOp op;
  op.n_ = n;
  op.c_ = c;
  auto coeff = std::make_shared<Coefficients>();
  coeff->ax = std::move(ax);
  coeff->ay = std::move(ay);
  op.coeff_ = std::move(coeff);
  auto corner = std::make_shared<CornerCoefficients>();
  corner->ase = std::move(ase);
  corner->asw = std::move(asw);
  corner->center = std::move(center);
  op.corner_ = std::move(corner);
  return op;
}

StencilOp StencilOp::from_tensor(
    int n, const std::function<double(double, double)>& a11_fn,
    const std::function<double(double, double)>& a12_fn,
    const std::function<double(double, double)>& a22_fn, double c) {
  PBMG_CHECK(is_valid_grid_size(n),
             "StencilOp::from_tensor: n must be 2^k + 1");
  PBMG_CHECK(a11_fn != nullptr && a12_fn != nullptr && a22_fn != nullptr,
             "StencilOp::from_tensor: null coefficient function");
  const double h = mesh_width(n);
  Grid2D ax(n, 0.0);
  Grid2D ay(n, 0.0);
  Grid2D ase(n, 0.0);
  Grid2D asw(n, 0.0);
  Grid2D center(n, 0.0);
  // Convention matches from_coefficients: row i is y = i·h, column j is
  // x = j·h.  Edge couplings sample the in-line tensor entry at the edge
  // midpoint; the mixed term −2·a12·u_xy discretises with the standard
  // 4-corner cross stencil, giving coupling +a12/2 on the "\" diagonal
  // and −a12/2 on the "/" diagonal, each sampled at its own midpoint so
  // the coupling is shared symmetrically by its two endpoints.
  for (int i = 0; i < n; ++i) {
    const double y = i * h;
    for (int j = 0; j + 1 < n; ++j) {
      ax(i, j) = a11_fn((j + 0.5) * h, y);
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    const double y = (i + 0.5) * h;
    for (int j = 0; j < n; ++j) {
      ay(i, j) = a22_fn(j * h, y);
      // Diagonal midpoints stay inside [0,1]²: ase is read for j <= n−2
      // and asw for j >= 1, so the out-of-range columns are never
      // sampled (a12_fn need only be defined on the unit square).
      if (j + 1 < n) {
        ase(i, j) = 0.5 * a12_fn((j + 0.5) * h, y);
        // SPD precondition scan, matching check_coefficients' convention
        // for the 5-point factories: an indefinite tensor would otherwise
        // surface only as a non-positive Cholesky pivot (or silent cycle
        // divergence) far from the bad coefficient function.
        PBMG_NUM_ASSERT(
            [&] {
              const double x = (j + 0.5) * h;
              const double m11 = a11_fn(x, y);
              const double m22 = a22_fn(x, y);
              const double m12 = a12_fn(x, y);
              return m11 > 0.0 && m22 > 0.0 && m12 * m12 < m11 * m22;
            }(),
            "StencilOp::from_tensor: tensor must be SPD on [0,1]^2");
      }
      if (j > 0) asw(i, j) = -0.5 * a12_fn((j - 0.5) * h, y);
    }
  }
  // The centre is the row sum of the node's eight couplings, so the
  // operator annihilates constants exactly (A·1 = 0 away from the
  // boundary when c = 0), matching the flux-form 5-point convention.
  for (int i = 1; i + 1 < n; ++i) {
    for (int j = 1; j + 1 < n; ++j) {
      center(i, j) = ((ax(i, j - 1) + ax(i, j)) + (ay(i - 1, j) + ay(i, j))) +
                     ((ase(i, j) + ase(i - 1, j - 1)) +
                      (asw(i, j) + asw(i - 1, j + 1)));
    }
  }
  return nine_point(std::move(ax), std::move(ay), std::move(ase),
                    std::move(asw), std::move(center), c);
}

StencilOp StencilOp::from_coefficients(
    int n, const std::function<double(double, double)>& ax_fn,
    const std::function<double(double, double)>& ay_fn, double c) {
  PBMG_CHECK(is_valid_grid_size(n),
             "StencilOp::from_coefficients: n must be 2^k + 1");
  PBMG_CHECK(ax_fn != nullptr && ay_fn != nullptr,
             "StencilOp::from_coefficients: null coefficient function");
  const double h = mesh_width(n);
  Grid2D ax(n, 1.0);
  Grid2D ay(n, 1.0);
  // Convention matches grid/problem.cpp: row i is y = i·h, column j is
  // x = j·h.  Edge coefficients are sampled at edge midpoints.
  for (int i = 0; i < n; ++i) {
    const double y = i * h;
    for (int j = 0; j + 1 < n; ++j) {
      ax(i, j) = ax_fn((j + 0.5) * h, y);
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    const double y = (i + 0.5) * h;
    for (int j = 0; j < n; ++j) {
      ay(i, j) = ay_fn(j * h, y);
    }
  }
  return variable(std::move(ax), std::move(ay), c);
}

StencilOp StencilOp::from_coefficient(
    int n, const std::function<double(double, double)>& a_fn, double c) {
  return from_coefficients(n, a_fn, a_fn, c);
}

const Grid2D& StencilOp::ax_grid() const {
  PBMG_CHECK(coeff_ != nullptr,
             "StencilOp::ax_grid: Poisson fast path stores no grids");
  return coeff_->ax;
}

const Grid2D& StencilOp::ay_grid() const {
  PBMG_CHECK(coeff_ != nullptr,
             "StencilOp::ay_grid: Poisson fast path stores no grids");
  return coeff_->ay;
}

const Grid2D& StencilOp::ase_grid() const {
  PBMG_CHECK(corner_ != nullptr,
             "StencilOp::ase_grid: operator has no corner couplings");
  return corner_->ase;
}

const Grid2D& StencilOp::asw_grid() const {
  PBMG_CHECK(corner_ != nullptr,
             "StencilOp::asw_grid: operator has no corner couplings");
  return corner_->asw;
}

const Grid2D& StencilOp::center_grid() const {
  PBMG_CHECK(corner_ != nullptr,
             "StencilOp::center_grid: operator has no corner couplings");
  return corner_->center;
}

double StencilOp::diag(int i, int j) const {
  PBMG_CHECK(i >= 1 && i < n_ - 1 && j >= 1 && j < n_ - 1,
             "StencilOp::diag: (i,j) must be an interior cell");
  const double inv_h2 =
      static_cast<double>(n_ - 1) * static_cast<double>(n_ - 1);
  return center(i, j) * inv_h2 + c_;
}

StencilOp StencilOp::restricted() const {
  PBMG_CHECK(n_ >= 5, "StencilOp::restricted: cannot coarsen below N = 5");
  const int nc = coarse_size(n_);
  if (is_poisson()) return poisson(nc);  // constants restrict to themselves

  const int n = n_;
  const auto clamp_row = [n](int r) { return std::clamp(r, 0, n - 1); };
  Grid2D ax_c(nc, 1.0);
  Grid2D ay_c(nc, 1.0);
  // Coarse edge (I,J)-(I,J+1) spans fine nodes (2I,2J)..(2I,2J+2): series
  // conductance of the two in-line fine edges, averaged with the parallel
  // paths one fine row above and below (weights ½/¼/¼; rows clamped at the
  // boundary so the weights always sum to 1 and constants are preserved).
  // Corner couplings of a 9-point operator are dropped here — this is the
  // 5-point averaged-coefficient approximation the tuner races against
  // galerkin_coarse().
  const auto x_path = [&](int row, int cj) {
    const int r = clamp_row(row);
    return series(ax(r, 2 * cj), ax(r, 2 * cj + 1));
  };
  const auto y_path = [&](int col, int ci) {
    const int c = clamp_row(col);
    return series(ay(2 * ci, c), ay(2 * ci + 1, c));
  };
  for (int ci = 0; ci < nc; ++ci) {
    for (int cj = 0; cj + 1 < nc; ++cj) {
      ax_c(ci, cj) = 0.5 * x_path(2 * ci, cj) +
                     0.25 * (x_path(2 * ci - 1, cj) + x_path(2 * ci + 1, cj));
      ay_c(cj, ci) = 0.5 * y_path(2 * ci, cj) +
                     0.25 * (y_path(2 * ci - 1, cj) + y_path(2 * ci + 1, cj));
    }
  }
  return variable(std::move(ax_c), std::move(ay_c), c_);
}

namespace {

/// The coupling grids of one Galerkin coarse operator under construction.
struct GalerkinGrids {
  explicit GalerkinGrids(int nc)
      : ax(nc, 0.0), ay(nc, 0.0), ase(nc, 0.0), asw(nc, 0.0), ctr(nc, 0.0) {}
  Grid2D ax;
  Grid2D ay;
  Grid2D ase;
  Grid2D asw;
  Grid2D ctr;
};

/// Coarse row `ci` of the Galerkin product (see galerkin_coarse()).
///
/// A_c(C,D) = Σ_p Σ_q R(C,p) · A(p,q) · P(q,D): R is the full-weighting
/// stencil [1 2 1; 2 4 2; 1 2 1]/16 over the 3×3 fine nodes around 2C
/// (boundary p excluded — restriction zeroes the ring), A runs over the
/// interior fine matrix (couplings to the boundary are Dirichlet-lifted,
/// not matrix entries), and P is bilinear interpolation (q contributes to
/// the coarse nodes D with |q − 2D|∞ <= 1, weight 2^-(|dx|+|dy|)).  Since
/// q stays within ±2 of 2C and 2D within ±1 of q, |D − C|∞ <= 1: the
/// Galerkin coarse operator is again 9-point.  Entries are stored in
/// coarse coupling units (×h_c² = 4·h_f², so matrix scaling cancels to the
/// factor 4 below) with the fine reaction term c folded into the coarse
/// stencil (the coarse operator carries c = 0).
///
/// Each node computes all eight of its couplings, and every shared one
/// (an edge or a diagonal) is also computed by the node at its other end,
/// equal up to summation-order rounding.  A row-major loop over all nodes
/// that stored both would keep the value of the later node.  This row
/// stores each shared entry only from that node: the west, north, NW and
/// NE couplings always (their other node comes earlier), the east, south,
/// SE and SW ones only where the other node lies outside the interior.
/// So every entry is written exactly once, rows may run in any order or
/// concurrently, and the result is bitwise the row-major one.  A row
/// writes only its own grid row and, for its north-side couplings, the
/// one above, and never an entry another row writes.
void galerkin_row(const StencilOp& fine, int ci, GalerkinGrids& out) {
  const int n = fine.n();
  const int nc = coarse_size(n);
  const double hf2 = mesh_width(n) * mesh_width(n);
  const double c = fine.c();
  constexpr double kRw[3] = {0.25, 0.5, 0.25};  // per-axis FW weights
  const bool last_row = ci == nc - 2;
  for (int cj = 1; cj + 1 < nc; ++cj) {
    double acc[3][3] = {};
    for (int dpi = -1; dpi <= 1; ++dpi) {
      const int pi = 2 * ci + dpi;
      if (pi < 1 || pi > n - 2) continue;
      for (int dpj = -1; dpj <= 1; ++dpj) {
        const int pj = 2 * cj + dpj;
        if (pj < 1 || pj > n - 2) continue;
        const double wr = kRw[dpi + 1] * kRw[dpj + 1];
        for (int si = -1; si <= 1; ++si) {
          const int qi = pi + si;
          if (qi < 1 || qi > n - 2) continue;
          for (int sj = -1; sj <= 1; ++sj) {
            const int qj = pj + sj;
            if (qj < 1 || qj > n - 2) continue;
            const double entry =
                (si == 0 && sj == 0)
                    ? 4.0 * (fine.center(pi, pj) + c * hf2)
                    : -4.0 * fine.coupling(pi, pj, si, sj);
            if (entry == 0.0) continue;
            // Bilinear P: an even fine index maps to one coarse node with
            // weight 1, an odd one to its two neighbours with ½.
            const int di0 = qi / 2;
            const int dj0 = qj / 2;
            const bool odd_i = (qi & 1) != 0;
            const bool odd_j = (qj & 1) != 0;
            const double wi = odd_i ? 0.5 : 1.0;
            const double wj = odd_j ? 0.5 : 1.0;
            const double w = wr * entry * (wi * wj);
            for (int ti = 0; ti <= (odd_i ? 1 : 0); ++ti) {
              for (int tj = 0; tj <= (odd_j ? 1 : 0); ++tj) {
                acc[di0 + ti - ci + 1][dj0 + tj - cj + 1] += w;
              }
            }
          }
        }
      }
    }
    // Couplings are the negated off-diagonal entries.
    out.ctr(ci, cj) = acc[1][1];
    out.ax(ci, cj - 1) = -acc[1][0];
    out.ay(ci - 1, cj) = -acc[0][1];
    out.ase(ci - 1, cj - 1) = -acc[0][0];
    out.asw(ci - 1, cj + 1) = -acc[0][2];
    const bool last_col = cj == nc - 2;
    if (last_col) out.ax(ci, cj) = -acc[1][2];
    if (last_row) out.ay(ci, cj) = -acc[2][1];
    if (last_row || last_col) out.ase(ci, cj) = -acc[2][2];
    if (last_row || cj == 1) out.asw(ci, cj) = -acc[2][0];
  }
}

/// galerkin_coarse() over every coarse row: serially when `sched` is
/// null, otherwise as a parallel loop whose cost per coarse row is the
/// two fine rows it covers.
StencilOp galerkin_product(const StencilOp& fine, rt::Scheduler* sched) {
  PBMG_CHECK(fine.n() >= 5,
             "StencilOp::galerkin_coarse: cannot coarsen below N = 5");
  const int n = fine.n();
  const int nc = coarse_size(n);
  GalerkinGrids out(nc);
  const auto rows = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ci = begin; ci < end; ++ci) {
      galerkin_row(fine, static_cast<int>(ci), out);
    }
  };
  if (sched == nullptr) {
    rows(1, nc - 1);
  } else {
    sched->parallel_for(1, nc - 1, sched->grain_for(nc - 2, 2 * n), rows);
  }
  return StencilOp::nine_point(std::move(out.ax), std::move(out.ay),
                               std::move(out.ase), std::move(out.asw),
                               std::move(out.ctr), 0.0);
}

}  // namespace

StencilOp StencilOp::galerkin_coarse() const {
  return galerkin_product(*this, nullptr);
}

StencilOp StencilOp::galerkin_coarse(rt::Scheduler& sched) const {
  return galerkin_product(*this, &sched);
}

StencilOp StencilOp::coarsened(Coarsening mode) const {
  return mode == Coarsening::kRap ? galerkin_coarse() : restricted();
}

StencilHierarchy::StencilHierarchy(StencilOp fine, Coarsening mode)
    : StencilHierarchy(std::move(fine), mode, nullptr) {}

StencilHierarchy::StencilHierarchy(StencilOp fine, Coarsening mode,
                                   rt::Scheduler& sched)
    : StencilHierarchy(std::move(fine), mode, &sched) {}

StencilHierarchy::StencilHierarchy(StencilOp fine, Coarsening mode,
                                   rt::Scheduler* sched)
    : mode_(mode) {
  PBMG_CHECK(fine.n() >= 3, "StencilHierarchy: empty fine operator");
  const int top = level_of_size(fine.n());
  ops_.resize(static_cast<std::size_t>(top) + 1);
  ops_[static_cast<std::size_t>(top)] = std::move(fine);
  for (int k = top - 1; k >= 1; --k) {
    const StencilOp& above = ops_[static_cast<std::size_t>(k) + 1];
    ops_[static_cast<std::size_t>(k)] =
        sched != nullptr && mode == Coarsening::kRap
            ? above.galerkin_coarse(*sched)
            : above.coarsened(mode);
  }
}

int StencilHierarchy::n() const {
  return ops_.empty() ? 0 : ops_.back().n();
}

bool StencilHierarchy::is_poisson() const {
  for (std::size_t k = 1; k < ops_.size(); ++k) {
    if (!ops_[k].is_poisson()) return false;
  }
  return !ops_.empty();
}

std::size_t StencilHierarchy::bytes() const {
  std::size_t total = 0;
  for (std::size_t k = 1; k < ops_.size(); ++k) total += ops_[k].bytes();
  return total;
}

const StencilOp& StencilHierarchy::at(int level) const {
  PBMG_CHECK(level >= 1 && level <= top_level(),
             "StencilHierarchy::at: level " + std::to_string(level) +
                 " outside [1, " + std::to_string(top_level()) + "]");
  return ops_[static_cast<std::size_t>(level)];
}

}  // namespace pbmg::grid
