#include "linalg/poisson_assembly.h"

#include "grid/level.h"

namespace pbmg::linalg {

BandMatrix assemble_stencil_band(const grid::StencilOp& op) {
  const int n = op.n();
  PBMG_CHECK(is_valid_grid_size(n), "assemble_stencil_band: n must be 2^k+1");
  const int m_side = n - 2;
  const int dim = m_side * m_side;
  const bool nine = op.is_nine_point();
  // Corner couplings add the (i+1, j∓1) neighbours at offsets m_side∓1,
  // widening the band by one.
  const int kd = nine ? m_side + 1 : m_side;
  const double inv_h2 =
      static_cast<double>(n - 1) * static_cast<double>(n - 1);
  const double c = op.c();
  BandMatrix a(dim, dim == 1 ? 0 : kd);
  for (int i = 0; i < m_side; ++i) {
    const int gi = i + 1;  // grid row of this unknown
    for (int j = 0; j < m_side; ++j) {
      const int gj = j + 1;
      const int idx = i * m_side + j;
      const double diag = op.center(gi, gj) * inv_h2 + c;
      PBMG_NUM_ASSERT(diag > 0.0,
                      "assemble_stencil_band: non-positive diagonal");
      a.band(idx, 0) = diag;
      if (j + 1 < m_side) a.band(idx, 1) = -op.ax(gi, gj) * inv_h2;  // east
      if (i + 1 < m_side) {
        a.band(idx, m_side) = -op.ay(gi, gj) * inv_h2;  // south
        if (nine) {
          if (j > 0) {  // south-west: coupling (gi,gj)↔(gi+1,gj−1)
            a.band(idx, m_side - 1) = -op.asw(gi, gj) * inv_h2;
          }
          if (j + 1 < m_side) {  // south-east: (gi,gj)↔(gi+1,gj+1)
            a.band(idx, m_side + 1) = -op.ase(gi, gj) * inv_h2;
          }
        }
      }
    }
  }
  return a;
}

std::vector<double> gather_stencil_rhs(const grid::StencilOp& op,
                                       const Grid2D& b,
                                       const Grid2D& x_boundary) {
  const int n = b.n();
  PBMG_CHECK(is_valid_grid_size(n), "gather_stencil_rhs: n must be 2^k+1");
  PBMG_CHECK(op.n() == n && x_boundary.n() == n,
             "gather_stencil_rhs: size mismatch");
  const int m_side = n - 2;
  const double inv_h2 =
      static_cast<double>(n - 1) * static_cast<double>(n - 1);
  std::vector<double> rhs(static_cast<std::size_t>(m_side) *
                          static_cast<std::size_t>(m_side));
  if (op.is_nine_point()) {
    // Corner couplings can also cross the boundary; enumerate all eight
    // neighbours and lift every boundary-crossing coupling.
    for (int i = 1; i <= m_side; ++i) {
      for (int j = 1; j <= m_side; ++j) {
        double v = b(i, j);
        for (int si = -1; si <= 1; ++si) {
          for (int sj = -1; sj <= 1; ++sj) {
            if (si == 0 && sj == 0) continue;
            const int ni = i + si;
            const int nj = j + sj;
            const bool on_boundary =
                ni == 0 || ni == n - 1 || nj == 0 || nj == n - 1;
            if (!on_boundary) continue;
            v += op.coupling(i, j, si, sj) * inv_h2 * x_boundary(ni, nj);
          }
        }
        rhs[static_cast<std::size_t>(i - 1) * m_side + (j - 1)] = v;
      }
    }
    return rhs;
  }
  for (int i = 1; i <= m_side; ++i) {
    for (int j = 1; j <= m_side; ++j) {
      double v = b(i, j);
      if (i == 1) v += op.ay(0, j) * inv_h2 * x_boundary(0, j);
      if (i == m_side) v += op.ay(n - 2, j) * inv_h2 * x_boundary(n - 1, j);
      if (j == 1) v += op.ax(i, 0) * inv_h2 * x_boundary(i, 0);
      if (j == m_side) v += op.ax(i, n - 2) * inv_h2 * x_boundary(i, n - 1);
      rhs[static_cast<std::size_t>(i - 1) * m_side + (j - 1)] = v;
    }
  }
  return rhs;
}

void scatter_interior(const std::vector<double>& x, Grid2D& out) {
  const int n = out.n();
  const int m_side = n - 2;
  PBMG_CHECK(static_cast<int>(x.size()) == m_side * m_side,
             "scatter_interior: vector/grid size mismatch");
  for (int i = 1; i <= m_side; ++i) {
    for (int j = 1; j <= m_side; ++j) {
      out(i, j) = x[static_cast<std::size_t>(i - 1) * m_side + (j - 1)];
    }
  }
}

}  // namespace pbmg::linalg
