#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "grid/grid2d.h"
#include "grid/packed_rows.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file wavefront.h
/// Row wavefronts, and the one row set every point pass runs.
///
/// A wavefront is one pass of several stages over the interior rows of a
/// grid, each stage a fixed number of rows behind the one before, so each
/// row is read from cache by every stage that needs it.  Each block of
/// rows runs every stage; a block's stages stop short of its neighbours'
/// rows, and the rows they leave at each block edge (a triangle) run in a
/// second parallel region, once every block is done, so no run ever
/// waits on another.  The point-SOR sweep below is a two-stage wavefront;
/// solvers::recurse_head and recurse_tail (solvers/relax.h) run each
/// half of a RECURSE body as a three-stage one.
///
/// OperatorRows holds the pk:: rows of one operator, the Poisson rows or
/// the 5- or 9-point rows and the transfers, and is the only place they
/// are picked: the wavefronts here and grid_ops.h's apply, residual,
/// restriction and interpolation passes all run them.  ResidualRing is
/// the residual restriction's three-row ring, shared by
/// restrict_residual_multi's leaves and the fused RECURSE head.  Every
/// cell sees the same inputs in the same order through the same rows as
/// in separate passes, so a wavefront's results are bitwise those of the
/// separate passes under any thread count and SIMD width.

namespace pbmg::grid {

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

/// Blocks per scheduler thread in a wavefront pass: enough that work
/// stealing evens out a slow block, few enough that the triangles at the
/// block edges stay a small share of the pass.
inline constexpr int kWaveBlocksPerThread = 4;

/// Runs a pass of depth + 1 stages over the interior rows of side n as a
/// row wavefront: run(WaveRun) once per block in one parallel region,
/// then once per triangle in a second, so no run ever waits on another.
/// A triangle touches only rows near its edge r (the head's, the widest,
/// reads r − 5 … r + 4 and writes r − 1 and r), so blocks of at least
/// 2·depth + 2 rows keep concurrent triangles apart.  The pass is priced
/// for rt::Scheduler::grain_for at `cost_per_cell` per cell of its rows;
/// below the scheduler's sequential cutoff, or on one thread, it is one
/// block run inline.
template <typename Run>
void wavefront(int n, int depth, std::int64_t cost_per_cell,
               rt::Scheduler& sched, const Run& run) {
  const int rows = n - 2;
  int blocks = 1;
  if (sched.thread_count() > 1 &&
      sched.grain_for(rows, rows, cost_per_cell) < rows) {
    blocks = std::clamp(rows / (2 * depth + 2), 1,
                        kWaveBlocksPerThread * sched.thread_count());
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

/// The pk:: rows of one operator of side n, the only row set a point
/// pass runs: apply and the residual (residual_op, apply_op), the SOR
/// rows of a wavefront's two stages, and the full-weighting restriction
/// and bilinear interpolation rows every operator shares (the grid_ops.h
/// transfers, the fused restriction and the RECURSE halves).  The
/// Poisson rows and the transfers run at the widest supported width, the
/// 5- and 9-point rows at the width they are built with (row_width of
/// the policy), and rows shorter than a wide SOR row earns back run the
/// scalar SOR row; every width gives the scalar loop's bits.
class OperatorRows {
 public:
  /// Which weight of grid_ops.h prices a pass of these rows: a SOR sweep
  /// or wavefront (kSorCost5/9), or a residual, apply or residual
  /// restriction (kResidualCost5/9, per fine cell).
  enum Pass { kSor, kResidual };

  /// The Poisson operator's rows, whose transfers also serve any
  /// operator of side n; the SOR rows run at `omega`.
  explicit OperatorRows(int n, double omega = 1.0);

  /// The rows of `op`: the Poisson rows on the fast path, and otherwise
  /// the 5- or 9-point rows over op's grids (pk::view5 / view9) at `w`
  /// lanes, a width the CPU supports (row_width or clamp_simd_width
  /// resolves it), with the SOR rows at `omega`.  Keeps a pointer to
  /// `op`, which must outlive the rows.
  OperatorRows(const StencilOp& op, int w, double omega = 1.0);

  int n() const { return n_; }
  int nc() const { return nc_; }

  /// rt::Scheduler::grain_for's cost per cell of a pass over K iterates:
  /// 1 on Poisson, the pass's 5- or 9-point weight times K otherwise.
  std::int64_t cost(Pass pass, std::size_t batch) const;

  /// SOR stage `stage` (0 or 1) of row i.  On a 5-point operator stage 0
  /// updates the red cells ((i + j) even) and stage 1 the black ones; a
  /// row's stage may run once the previous stage has finished rows
  /// i − 1 … i + 1.  On a 9-point operator stage 0 runs the even rows'
  /// two four-colour classes (even columns, then odd) and stage 1 the odd
  /// rows' (a stage skips rows of the other parity), which gives the four
  /// colour passes' bits: a class reads only its own row and rows of the
  /// other parity.  The wide rows read rows i ± 1 whole and rewrite row
  /// i's other colour (packed_rows.h), so on a 5-point operator a wide
  /// row is safe only where no other thread touches rows i − 1 … i + 1;
  /// a `narrow` row takes the scalar row, which reads only the other
  /// colour of rows i ± 1 and writes only the cells it updates.  A
  /// 9-point stage writes rows of one parity and reads only rows of the
  /// other, so it ignores `narrow`.
  void sor(Grid2D& x, const Grid2D& b, int i, int stage, bool narrow) const;

  /// Row i of b − A·x, or of A·x when b is null, into out[1 … n − 2].
  void residual(const Grid2D& x, const Grid2D* b, int i, double* out) const;

  /// Full weighting of fine rows up/mid/down onto coarse row `out`
  /// (columns 1 … nc − 2).
  void restrict_rows(const double* up, const double* mid, const double* down,
                     double* out) const {
    restrict_(up, mid, down, out, nc_);
  }

  /// Fine row i = P·c (assign) or += P·c, c of side nc.
  void interpolate(const Grid2D& c, Grid2D& fine, int i, bool assign) const {
    interpolate_(c.row(i / 2), i % 2 == 0 ? nullptr : c.row(i / 2 + 1),
                 fine.row(i), assign, n_);
  }

 private:
  enum class Kind { kPoisson, kFivePoint, kNinePoint };

  Kind kind_ = Kind::kPoisson;
  const StencilOp* op_ = nullptr;
  int n_;
  int nc_;
  double h2_;
  double inv_h2_;
  double c_ = 0.0;
  double ch2_ = 0.0;
  double omega_;
  double quarter_omega_;
  double keep_;
  decltype(&pk::poisson_sor_row<1>) poisson_sor_ = nullptr;
  decltype(&pk::poisson_residual_row<1>) poisson_residual_ = nullptr;
  decltype(&pk::sor_row5<1>) sor5_ = nullptr;
  decltype(&pk::stencil_row5<1>) residual5_ = nullptr;
  decltype(&pk::sor_row9<1>) sor9_ = nullptr;
  decltype(&pk::stencil_row9<1>) residual9_ = nullptr;
  decltype(&pk::restrict_row<1>) restrict_;
  decltype(&pk::interpolate_row<1>) interpolate_;
};

/// The three-row ring of a fused residual restriction over K iterates of
/// one operator: coarse[k] = full weighting of (bs[k] − A·xs[k]) from
/// fine residual rows kept only in the ring, each slot's last three rows
/// (row i at ring row i mod 3).  One ring serves one parallel leaf of
/// restrict_residual_multi or one run of the fused RECURSE head
/// (solvers/relax.h), over fine rows first, first + 1, … in order;
/// `first` is odd, the row above the ring's first coarse row, whenever a
/// row is stepped.
class ResidualRing {
 public:
  ResidualRing(const OperatorRows& rows, int first,
               std::span<const Grid2D* const> xs,
               std::span<const Grid2D* const> bs,
               std::span<Grid2D* const> coarse,
               std::span<Grid2D* const> zeroed);

  /// Writes residual row i of every slot into that slot's ring, back to
  /// back, so row i's coefficient rows load once for the batch.  When
  /// row i completes coarse row ci = (i − 1)/2 (i odd, past `first`),
  /// restricts ci of every slot with a zero ring and zeroes row ci of
  /// each zeroed grid: the coarse correction's zero guess.
  void step(int i);

  /// Zeroes coarse row ci, ring included, of every coarse and zeroed
  /// grid: rows 0 and nc − 1, which no step restricts.
  void zero_row(int ci) const;

 private:
  const OperatorRows& rows_;
  int first_;
  std::span<const Grid2D* const> xs_;
  std::span<const Grid2D* const> bs_;
  std::span<Grid2D* const> coarse_;
  std::span<Grid2D* const> zeroed_;
  std::unique_ptr<double[]> ring_;
};

/// One point-SOR sweep of each xs[k] against bs[k] under rows' operator,
/// as a two-stage row wavefront (stage 1 one row behind stage 0).  A
/// 5-point block's stage-0 rows at its edges border another block's
/// stage-0 rows, so they take the narrow row.  Every slot is bitwise its
/// colour passes, under any thread count; the slots never couple.
void sor_wavefront(const OperatorRows& rows, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched);

}  // namespace pbmg::grid
