#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "grid/grid2d.h"
#include "grid/packed_rows.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file wavefront.h
/// Row wavefronts, and the rows a point-SOR wavefront runs.
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
/// WaveRows holds the pk:: row kernels of one operator: the Poisson rows,
/// or the packed 5- or 9-point rows.  Every cell sees the same inputs in
/// the same order through the same rows as in separate passes, so a
/// wavefront's results are bitwise those of the separate passes under any
/// thread count and SIMD width.

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

/// The pk:: rows a point-SOR wavefront runs on one operator of side n:
/// the SOR rows of its two stages, its residual rows, and the
/// full-weighting restriction and bilinear interpolation rows every
/// operator shares.  The Poisson rows and the transfers run at the
/// widest supported width, the packed rows at the policy's clamped
/// width, and rows shorter than a wide SOR row earns back run the scalar
/// SOR row; every width gives the scalar loop's bits.
class WaveRows {
 public:
  /// The Poisson operator's rows.
  WaveRows(int n, double omega);

  /// The rows of `op`: the Poisson rows on the fast path, and otherwise
  /// the packed 5- or 9-point rows over op's grids (pk::view5 / view9;
  /// a 5-point diagonal is summed here on first touch) at `simd_width`,
  /// clamped to what the CPU supports.  Keeps a pointer to `op`, which
  /// must outlive the rows.
  WaveRows(const StencilOp& op, double omega, int simd_width);

  int n() const { return n_; }
  int nc() const { return nc_; }

  /// rt::Scheduler::grain_for's cost per cell of a SOR pass over K
  /// iterates: 1 on Poisson, the SOR weight (grid_ops.h) times K
  /// otherwise.
  std::int64_t sor_cost(std::size_t batch) const;

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

  /// Row i of b − A·x into out[1 … n − 2].
  void residual(const Grid2D& x, const Grid2D& b, int i, double* out) const;

  /// Full weighting of fine rows up/mid/down onto coarse row `out`.
  void restrict_rows(const double* up, const double* mid, const double* down,
                     double* out) const {
    restrict_(up, mid, down, out, nc_);
  }

  /// x row i += P·e.
  void interpolate_add(const Grid2D& e, Grid2D& x, int i) const {
    interpolate_(e.row(i / 2), i % 2 == 0 ? nullptr : e.row(i / 2 + 1),
                 x.row(i), /*assign=*/false, n_);
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

/// One point-SOR sweep of each xs[k] against bs[k] under rows' operator,
/// as a two-stage row wavefront (stage 1 one row behind stage 0).  A
/// 5-point block's stage-0 rows at its edges border another block's
/// stage-0 rows, so they take the narrow row.  Every slot is bitwise its
/// colour passes, under any thread count; the slots never couple.
void sor_wavefront(const WaveRows& rows, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched);

}  // namespace pbmg::grid
