#pragma once

#include <cstddef>

/// \file packed_stencil.h
/// An empty type, kept because the benchmark's probes compile against it
/// (StencilOp::packed().bytes()).  The rows read a StencilOp's own
/// coefficient grids through pk::view5 / pk::view9 (packed_kernels.h)
/// and store nothing beside them: a 9-point operator stores its centre,
/// and a 5-point row sums its diagonal ((aW+aE)+aN)+aS from the four
/// couplings it loads.
namespace pbmg::grid {

/// What the rows store beside an operator's grids: nothing.
class PackedStencil {
 public:
  /// Heap bytes held: always 0.
  std::size_t bytes() const { return 0; }
};

}  // namespace pbmg::grid
