#pragma once

#include <vector>

#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"

/// \file poisson_assembly.h
/// Assembly of the 2-D elliptic systems as band matrices.
///
/// Interior unknowns of an n×n grid are ordered lexicographically
/// (idx = (i−1)·(n−2) + (j−1)), giving an SPD band matrix of dimension
/// (n−2)² with bandwidth n−2 — exactly the system the paper hands to
/// LAPACK's DPBSV in its Direct method.  Dirichlet boundary values are
/// lifted into the right-hand side.  Every operator, the Poisson fast
/// path (StencilOp::poisson(n)) included, is assembled from its
/// grid::StencilOp.

namespace pbmg::linalg {

/// Writes a solution vector (interior, lexicographic) into the interior of
/// `out`.  Requires out.n() consistent with x.size() == (n−2)².
void scatter_interior(const std::vector<double>& x, Grid2D& out);

/// Assembles an operator (see stencil_op.h; the 1/h² scaling of
/// grid/grid_ops.h) as an SPD band matrix: diag = center/h² + c,
/// east/south off-diagonals −ax/h², −ay/h².  A 9-point operator
/// additionally stores its south-west/south-east corner couplings at
/// offsets m∓1 (bandwidth m+1, m = n−2).  Poisson gives 4/h² on the
/// diagonal and −1/h² off it.
BandMatrix assemble_stencil_band(const grid::StencilOp& op);

/// Right-hand-side vector for interior unknowns: the grid RHS `b` plus the
/// Dirichlet ring carried by `x_boundary` (only its ring is read), each
/// boundary-crossing coupling lifted with its own coefficient.  Requires
/// matching valid sizes.
std::vector<double> gather_stencil_rhs(const grid::StencilOp& op,
                                       const Grid2D& b,
                                       const Grid2D& x_boundary);

}  // namespace pbmg::linalg
