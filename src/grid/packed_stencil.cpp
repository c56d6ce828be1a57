#include "grid/packed_stencil.h"

#include "grid/stencil_op.h"

namespace pbmg::grid {

PackedStencil PackedStencil::pack(const StencilOp& op) {
  PBMG_CHECK(!op.is_poisson(),
             "PackedStencil::pack: the Poisson fast path has no coefficient "
             "grids to pack");
  PackedStencil p;
  if (op.is_nine_point()) return p;
  const int n = op.n();
  const Grid2D& ax = op.ax_grid();
  const Grid2D& ay = op.ay_grid();
  p.diag_ = Grid2D(n, 0.0);
  for (int i = 1; i <= n - 2; ++i) {
    double* diag = p.diag_.row(i);
    for (int j = 1; j <= n - 2; ++j) {
      diag[j] = ((ax(i, j - 1) + ax(i, j)) + ay(i - 1, j)) + ay(i, j);
    }
  }
  return p;
}

}  // namespace pbmg::grid
