#include "solvers/line_relax.h"

#include "grid/grid_ops.h"
#include "grid/packed_kernels.h"

namespace pbmg::solvers {

namespace {

bool has_x_pass(RelaxKind kind) {
  return kind == RelaxKind::kLineX || kind == RelaxKind::kLineZebraAlt;
}

bool has_y_pass(RelaxKind kind) {
  return kind == RelaxKind::kLineY || kind == RelaxKind::kLineZebraAlt;
}

}  // namespace

void line_relax_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      RelaxKind kind, rt::Scheduler& sched,
                      grid::ScratchPool& pool,
                      const grid::KernelPolicy& kernels) {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  line_relax_sweep_multi(op, xs, bs, kind, sched, pool, kernels);
}

void line_relax_sweep_multi(const grid::StencilOp& op,
                            std::span<Grid2D* const> xs,
                            std::span<const Grid2D* const> bs, RelaxKind kind,
                            rt::Scheduler& sched, grid::ScratchPool& pool,
                            const grid::KernelPolicy& kernels) {
  PBMG_CHECK(is_line_relax(kind),
             "line_relax_sweep: kind must be a line variant");
  grid::check_batch("line_relax_sweep", op.n(), {xs, bs});
  if (xs.empty()) return;
  // The whole batch goes to the line passes (grid/packed_kernels.h).  The
  // zebra order per iterate (x pass then y pass, odd lines then even)
  // holds inside each pass, so every slot is bitwise its solo sweep.
  const int width = grid::row_width(kernels);
  if (has_x_pass(kind)) {
    grid::packed_line_multi(op, xs, bs, /*columns=*/false, sched, pool,
                            width);
  }
  if (has_y_pass(kind)) {
    grid::packed_line_multi(op, xs, bs, /*columns=*/true, sched, pool, width);
  }
}

}  // namespace pbmg::solvers
