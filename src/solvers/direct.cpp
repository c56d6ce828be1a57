#include "solvers/direct.h"

#include "grid/level.h"
#include "linalg/poisson_assembly.h"

namespace pbmg::solvers {

void DirectSolver::solve(const Grid2D& b, Grid2D& x) {
  solve(grid::StencilOp::poisson(b.n()), b, x);
}

void DirectSolver::solve(const grid::StencilOp& op, const Grid2D& b,
                         Grid2D& x) {
  const int n = b.n();
  PBMG_CHECK(is_valid_grid_size(n), "DirectSolver::solve: n must be 2^k+1");
  PBMG_CHECK(x.n() == n && op.n() == n,
             "DirectSolver::solve: grid/operator size mismatch");
  linalg::BandMatrix a = linalg::assemble_stencil_band(op);
  std::vector<double> rhs = linalg::gather_stencil_rhs(op, b, x);
  linalg::band_spd_solve(a, rhs);
  linalg::scatter_interior(rhs, x);
}

}  // namespace pbmg::solvers
