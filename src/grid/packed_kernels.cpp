#include "grid/packed_kernels.h"

#include <algorithm>
#include <optional>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_rows.h"
#include "grid/wavefront.h"

// This TU is compiled with baseline flags only — all ISA-specific code
// lives behind the explicit template instantiations in the per-width TUs
// (packed_kernels_w*.cpp), which this file reaches through the
// declarations in packed_rows.h.  Keep it that way: adding -mavx2 here
// would let the compiler leak AVX2 into code that runs on any CPU.

namespace pbmg::grid {

namespace pk {

View5 view5(const StencilOp& op, int i) {
  const double* ax = op.ax_grid().row(i);
  const Grid2D& ay = op.ay_grid();
  return {ax - 1, ax, ay.row(i - 1), ay.row(i)};
}

View9 view9(const StencilOp& op, int i) {
  const NinePointRows r(op, i);
  return {r.ax - 1,    r.ax,    r.ay_up, r.ay_dn, r.se_up,
          r.sw_up + 1, r.sw_dn, r.se_dn, r.center};
}

}  // namespace pk

namespace {

/// Line-group geometry for one zebra parity: lines first, first+2, …,
/// n−2 split into ceil(count / w) groups of up to w lanes.
struct LineGroups {
  int first = 0;
  int count = 0;
  int groups = 0;
};

LineGroups line_groups(int n, int parity, int w) {
  LineGroups g;
  g.first = parity == 1 ? 1 : 2;
  g.count = g.first <= n - 2 ? (n - 2 - g.first) / 2 + 1 : 0;
  g.groups = (g.count + w - 1) / w;
  return g;
}

/// The Thomas workspaces lease one n×n grid each and hand group g the w
/// consecutive rows starting at row g·w (cp/dp entry [k·W + lane]).  The
/// highest row touched is groups·w − 1 <= count + w − 2 <= (n−1)/2 + w − 2,
/// which fits inside the n rows for w = 4 whenever n >= 5 and for w = 2
/// even at n = 3, so the line sweeps clamp w to 2 on the 3×3 coarsest
/// grid.
int clamp_line_width(int w, int n) {
  return n < 5 ? std::min(w, 2) : w;
}

/// Tasks per scheduler thread when a line pass forks: a task takes
/// max(1, groups / (kLineTasksPerThread · threads)) line groups, in place
/// of the profile's grain_rows (packed_kernels.h has the measurement).
constexpr int kLineTasksPerThread = 8;

/// Groups per task of one zebra parity's pass over `groups` line groups of
/// `cells` cells each (lanes × line length × K), priced at `cost` per
/// cell: the whole range when the pass runs inline.
std::int64_t line_grain(const rt::Scheduler& sched, int groups,
                        std::int64_t cells, std::int64_t cost) {
  if (sched.below_cutoff(groups, cells, cost)) return groups;
  return std::max(1, groups / (kLineTasksPerThread * sched.thread_count()));
}

}  // namespace

int packed_simd_width_supported() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") ? 4 : 2;
#elif defined(__aarch64__)
  // The 4-lane kernels compile to plain NEON register pairs (baseline on
  // aarch64), so the widest request is always safe here.
  return 4;
#else
  return 1;
#endif
}

int clamp_simd_width(int width) {
  PBMG_CHECK(width == 1 || width == 2 || width == 4,
             "clamp_simd_width: width must be 1, 2 or 4");
  const int supported = packed_simd_width_supported();
  int w = width;
  while (w > supported) w /= 2;
  return w < 1 ? 1 : w;
}

int row_width(const KernelPolicy& kernels) {
  return kernels.layout == StencilLayout::kPacked
             ? clamp_simd_width(kernels.simd_width)
             : 1;
}

namespace {

void check_packed_operands(const StencilOp& op, const Grid2D& x,
                           const char* what) {
  PBMG_CHECK(!op.is_poisson(),
             std::string(what) + ": Poisson fast path has no packed form");
  PBMG_CHECK(is_valid_grid_size(x.n()),
             std::string(what) + ": grid size must be 2^k+1");
  PBMG_CHECK(op.n() == x.n(),
             std::string(what) + ": operator/grid size mismatch");
}

/// The batch's size checks.  They allow Poisson, which only the line
/// passes take.
void check_batch_sizes(const StencilOp& op, std::span<Grid2D* const> xs,
                       std::span<const Grid2D* const> bs, const char* what) {
  PBMG_CHECK(xs.size() == bs.size(),
             std::string(what) + ": span size mismatch");
  if (xs.empty()) return;
  PBMG_CHECK(is_valid_grid_size(op.n()),
             std::string(what) + ": grid size must be 2^k+1");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k]->n() == op.n() && bs[k]->n() == op.n(),
               std::string(what) + ": grid size mismatch");
  }
}

}  // namespace

void packed_residual(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                     Grid2D& r, rt::Scheduler& sched, int simd_width) {
  check_packed_operands(op, x, "packed_residual");
  residual_op(op, x, b, r, sched, {StencilLayout::kPacked, simd_width});
}

void packed_sor_sweep(const StencilOp& op, Grid2D& x, const Grid2D& b,
                      double omega, rt::Scheduler& sched, int simd_width) {
  check_packed_operands(op, x, "packed_sor_sweep");
  PBMG_CHECK(b.n() == x.n(), "packed_sor_sweep: grid size mismatch");
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  sor_wavefront(WaveRows(op, omega, clamp_simd_width(simd_width)), xs, bs,
                sched);
}

// Odd lines, then even lines, each parity's lines in groups of w lanes,
// and each group solved for every iterate by pk::line_group, which picks
// its body by K.  Factor-once costs a second walk over the stored
// factors, which one iterate never earns back: on 4 threads with
// AVX2, factor-once took 1.08–1.39× the one-pass time at K = 1 and
// 0.52–0.90× the time of four one-pass calls at K = 4, with identical
// bits.
void packed_line_multi(const StencilOp& op, std::span<Grid2D* const> xs,
                       std::span<const Grid2D* const> bs, bool columns,
                       rt::Scheduler& sched, ScratchPool& pool,
                       int simd_width) {
  check_batch_sizes(op, xs, bs, "packed_line");
  if (xs.empty()) return;
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const bool poisson = op.is_poisson();
  const int w = clamp_line_width(
      poisson ? packed_simd_width_supported() : clamp_simd_width(simd_width),
      n);
  const auto solve = by_width(w, &pk::line_group<1>, &pk::line_group<2>,
                              &pk::line_group<4>);
  const int slots = static_cast<int>(xs.size());
  auto cp_lease = pool.acquire(n);
  auto dp_lease = pool.acquire(n);
  std::optional<ScratchPool::Lease> sub_lease;
  std::optional<ScratchPool::Lease> inv_lease;
  if (slots > 1) {
    sub_lease.emplace(pool.acquire(n));
    inv_lease.emplace(pool.acquire(n));
  }
  pk::LineGroup pass{.columns = columns,
                     .slots = slots,
                     .h2 = h2,
                     .ch2 = op.c() * h2,
                     .n = n};
  if (poisson) {
    pass.stencil = pk::LineStencil::kPoisson;  // reads no coefficient
  } else if (op.is_nine_point()) {
    pass.stencil = pk::LineStencil::kNine;
    pass.coeffs = pk::view9(op, 1);
  } else {
    // No corners and no centre: the band sums the diagonal.
    pass.stencil = pk::LineStencil::kFive;
    const pk::View5 v = pk::view5(op, 1);
    pass.coeffs = {v.aw,    v.ae,    v.an,    v.as,   nullptr,
                   nullptr, nullptr, nullptr, nullptr};
  }
  const std::int64_t cost = poisson ? 1 : kLineCost;
  for (int parity = 1; parity >= 0; --parity) {
    const LineGroups lg = line_groups(n, parity, w);
    if (lg.groups == 0) continue;
    sched.parallel_for(
        0, lg.groups,
        line_grain(sched, lg.groups,
                   static_cast<std::int64_t>(w) * (n - 2) * slots, cost),
        [&](std::int64_t gb, std::int64_t ge) {
          pk::LineGroup g = pass;
          for (int group = static_cast<int>(gb); group < static_cast<int>(ge);
               ++group) {
            const int row = group * w;  // of each Thomas workspace
            g.first = lg.first + 2 * row;
            g.lanes = std::min(w, lg.count - row);
            g.cp = cp_lease.get().row(row);
            g.dp = dp_lease.get().row(row);
            if (slots > 1) {
              g.sub = sub_lease->get().row(row);
              g.inv = inv_lease->get().row(row);
            }
            for (int k = 0; k < slots; ++k) {
              g.x = xs[k]->row(0);
              g.b = bs[k]->row(0);
              g.slot = k;
              solve(g);
            }
          }
        });
  }
}

}  // namespace pbmg::grid
