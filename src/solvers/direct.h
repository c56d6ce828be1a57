#pragma once

#include "grid/grid2d.h"
#include "grid/stencil_op.h"

/// \file direct.h
/// The paper's Direct method: banded Cholesky factor + triangular solves,
/// the LAPACK DPBSV equivalent.
///
/// DPBSV factors on every call, and the paper's complexity table (Direct =
/// n² = N⁴) counts that factorization; so does every solve here.  Every
/// operator, the Poisson fast path included, is assembled by
/// linalg::assemble_stencil_band / gather_stencil_rhs.

namespace pbmg::solvers {

/// Stateless direct solver: each call assembles, factors and solves.
class DirectSolver {
 public:
  /// Solves the Poisson system A·x = b for the interior of `x`: a
  /// forward to the operator overload with StencilOp::poisson(b.n()).
  void solve(const Grid2D& b, Grid2D& x);

  /// Solves A·x = b for the interior of `x`, A the operator `op`
  /// (stencil_op.h).  On entry `x` carries the Dirichlet values on its
  /// ring (interior is ignored); on return the interior holds the exact
  /// solution.  Requires b.n() == x.n() == op.n() = 2^k+1.
  void solve(const grid::StencilOp& op, const Grid2D& b, Grid2D& x);
};

}  // namespace pbmg::solvers
