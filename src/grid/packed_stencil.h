#pragma once

#include <cstddef>

#include "grid/grid2d.h"

/// \file packed_stencil.h
/// What the packed rows need beside a StencilOp's own coefficient grids —
/// the stored part of the "packed" side of grid::StencilLayout.
///
/// The packed rows (packed_rows.h) read the operator's grids in place:
/// pk::view5 / pk::view9 (packed_kernels.h) point into them at the
/// offsets NinePointRows encodes, so entry [j] of each view is the
/// coupling column j's update reads from interior row i:
///
///     aW = ax row i, from column −1      aE = ax row i
///     aN = ay row i − 1                  aS = ay row i
///     aNW = ase row i − 1, at j − 1      aNE = asw row i − 1, from +1
///     aSW = asw row i                    aSE = ase row i
///     ctr = center row i                 (the last five 9-point only)
///
/// (aNW is read at j − 1 rather than offset, which at row 1 would point
/// before the ase grid.)
///
/// A 5-point view reads ax, ay and the diagonal below, a 9-point view its
/// five grids, each at row i and the row above, so a row sweep streams
/// each grid once.  A 9-point operator stores its centre, so it needs
/// nothing more and packs nothing.  A 5-point operator stores no centre:
/// the legacy rows sum ((aW+aE)+aN)+aS per cell, and the packed SOR row
/// divides by it, so it is summed once, in that order, into one n×n
/// grid.  That grid is all a PackedStencil holds.
///
/// Packing is a one-time cost per level: StencilOp caches the packed form
/// next to its coefficient grids (copies share it) and
/// StencilHierarchy::prewarm_packed() / SolveSession build it ahead of
/// any timed sweep.
namespace pbmg::grid {

class StencilOp;

/// The packed coefficients of one operator; built by pack() and normally
/// owned by the StencilOp's shared cache slot.
class PackedStencil {
 public:
  /// Empty; assign from pack().
  PackedStencil() = default;

  /// Packs `op`: its summed diagonal if 5-point, nothing if 9-point.
  /// Requires !op.is_poisson() — the fast path stores no grids (callers
  /// dispatch Poisson to the legacy kernels, which need no coefficients
  /// at all).
  static PackedStencil pack(const StencilOp& op);

  /// A 5-point operator's diagonal ((aW+aE)+aN)+aS at each interior cell
  /// (the boundary ring is 0), in the legacy rows' summation order, so
  /// a packed row divides by bitwise the diagonal the legacy row
  /// recomputes.  Empty (0×0) for a 9-point operator.
  const Grid2D& diag() const { return diag_; }

  /// Heap bytes held (one n×n grid for a 5-point operator, 0 for a
  /// 9-point one or while empty).  Feeds the per-session footprint
  /// accounting SolveService budgets against.
  std::size_t bytes() const { return diag_.size() * sizeof(double); }

 private:
  Grid2D diag_;
};

}  // namespace pbmg::grid
