#include "grid/packed_kernels.h"

#include <algorithm>
#include <type_traits>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_rows.h"
#include "grid/packed_stencil.h"
#include "grid/wavefront.h"

// This TU is compiled with baseline flags only — all ISA-specific code
// lives behind the explicit template instantiations in the per-width TUs
// (packed_kernels_w*.cpp), which this file reaches through the
// declarations in packed_rows.h.  Keep it that way: adding -mavx2 here
// would let the compiler leak AVX2 into code that runs on any CPU.

namespace pbmg::grid {

namespace pk {

View5 view5(const PackedStencil& p, int i) {
  return {p.stream(i, PackedStencil::kAw), p.stream(i, PackedStencil::kAe),
          p.stream(i, PackedStencil::kAn), p.stream(i, PackedStencil::kAs),
          p.stream(i, PackedStencil::kDiag5)};
}

View9 view9(const PackedStencil& p, int i) {
  return {p.stream(i, PackedStencil::kAw), p.stream(i, PackedStencil::kAe),
          p.stream(i, PackedStencil::kAn), p.stream(i, PackedStencil::kAs),
          p.stream(i, PackedStencil::kNw), p.stream(i, PackedStencil::kNe),
          p.stream(i, PackedStencil::kSw), p.stream(i, PackedStencil::kSe),
          p.stream(i, PackedStencil::kCtr)};
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
/// `cells` cells each (lanes × line length × K), priced at kLineCost: the
/// whole range when the pass runs inline.
std::int64_t line_grain(const rt::Scheduler& sched, int groups,
                        std::int64_t cells) {
  if (sched.below_cutoff(groups, cells, kLineCost)) return groups;
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

namespace {

/// Calls f with the lane width w ∈ {1, 2, 4} as a compile-time constant
/// (a std::integral_constant), so one call site reaches each width's
/// explicit instantiation in packed_kernels_w*.cpp.
template <typename F>
void with_width(int w, const F& f) {
  if (w == 4) {
    f(std::integral_constant<int, 4>{});
  } else if (w == 2) {
    f(std::integral_constant<int, 2>{});
  } else {
    f(std::integral_constant<int, 1>{});
  }
}

void check_packed_operands(const StencilOp& op, const Grid2D& x,
                           const char* what) {
  PBMG_CHECK(!op.is_poisson(),
             std::string(what) + ": Poisson fast path has no packed form");
  PBMG_CHECK(is_valid_grid_size(x.n()),
             std::string(what) + ": grid size must be 2^k+1");
  PBMG_CHECK(op.n() == x.n(),
             std::string(what) + ": operator/grid size mismatch");
}

void check_packed_batch(const StencilOp& op, std::span<Grid2D* const> xs,
                        std::span<const Grid2D* const> bs, const char* what) {
  PBMG_CHECK(xs.size() == bs.size(),
             std::string(what) + ": span size mismatch");
  if (xs.empty()) return;
  check_packed_operands(op, *xs[0], what);
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

void packed_sor_sweep_multi(const StencilOp& op, std::span<Grid2D* const> xs,
                            std::span<const Grid2D* const> bs, double omega,
                            rt::Scheduler& sched, int simd_width) {
  check_packed_batch(op, xs, bs, "packed_sor_sweep");
  if (xs.empty()) return;
  sor_wavefront(WaveRows(op, omega, simd_width), xs, bs, sched);
}

void packed_sor_sweep(const StencilOp& op, Grid2D& x, const Grid2D& b,
                      double omega, rt::Scheduler& sched, int simd_width) {
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&b};
  packed_sor_sweep_multi(op, xs, bs, omega, sched, simd_width);
}

// Both line passes keep two bodies and pick one by K.  One iterate runs
// the one-pass rows (x_lines*/y_lines*), which eliminate and substitute
// in a single walk of the bands.  A batch factors each line group once
// (x_factor*/y_factor*) and replays the rhs recurrence per iterate
// (x_apply*/y_apply*), so the pivot divides and coefficient loads are
// shared by all K.  The split costs a second walk over the stored
// factors, which one iterate never earns back: on 4 threads with AVX2,
// factor-once took 1.08–1.39× the one-pass time at K = 1 and 0.52–0.90×
// the time of four one-pass calls at K = 4, with identical bits.

void packed_line_x_multi(const StencilOp& op, std::span<Grid2D* const> xs,
                         std::span<const Grid2D* const> bs,
                         rt::Scheduler& sched, ScratchPool& pool,
                         int simd_width) {
  check_packed_batch(op, xs, bs, "packed_line_x");
  if (xs.empty()) return;
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const int w = clamp_line_width(clamp_simd_width(simd_width), n);
  const long pstride = 2 * p.row_stride();  // lane l: streams of row i0+2l
  const long gstride = 2 * static_cast<long>(n);  // lane l: grid row i0+2l
  const bool nine = p.nine_point();
  const bool factor_once = xs.size() > 1;
  auto cp_lease = pool.acquire(n);
  auto dp_lease = pool.acquire(n);
  Grid2D& cpg = cp_lease.get();
  Grid2D& dpg = dp_lease.get();
  std::vector<ScratchPool::Lease> factor_leases;
  if (factor_once) {
    factor_leases.push_back(pool.acquire(n));
    factor_leases.push_back(pool.acquire(n));
  }
  for (int parity = 1; parity >= 0; --parity) {
    const LineGroups lg = line_groups(n, parity, w);
    if (lg.groups == 0) continue;
    sched.parallel_for(
        0, lg.groups,
        line_grain(sched, lg.groups,
                   static_cast<std::int64_t>(w) * (n - 2) *
                       static_cast<std::int64_t>(xs.size())),
        [&](std::int64_t gb, std::int64_t ge) {
          for (int g = static_cast<int>(gb); g < static_cast<int>(ge); ++g) {
            const int i0 = lg.first + 2 * g * w;
            const int lanes = std::min(w, lg.count - g * w);
            double* cp = cpg.row(g * w);
            double* dp = dpg.row(g * w);
            if (!factor_once) {
              const double* up = xs[0]->row(i0 - 1);
              double* mid = xs[0]->row(i0);
              const double* down = xs[0]->row(i0 + 1);
              const double* rhs = bs[0]->row(i0);
              if (nine) {
                const pk::View9 v = pk::view9(p, i0);
                with_width(w, [&](auto W) {
                  pk::x_lines9<W>(v, pstride, up, mid, down, rhs, gstride,
                                  lanes, cp, dp, h2, ch2, n);
                });
              } else {
                const pk::View5 v = pk::view5(p, i0);
                with_width(w, [&](auto W) {
                  pk::x_lines5<W>(v, pstride, up, mid, down, rhs, gstride,
                                  lanes, cp, dp, h2, ch2, n);
                });
              }
              continue;
            }
            double* sub = factor_leases[0].get().row(g * w);
            double* inv = factor_leases[1].get().row(g * w);
            if (nine) {
              const pk::View9 v = pk::view9(p, i0);
              with_width(w, [&](auto W) {
                pk::x_factor9<W>(v, pstride, lanes, cp, sub, inv, ch2, n);
              });
              for (std::size_t k = 0; k < xs.size(); ++k) {
                const double* up = xs[k]->row(i0 - 1);
                double* mid = xs[k]->row(i0);
                const double* down = xs[k]->row(i0 + 1);
                const double* rhs = bs[k]->row(i0);
                with_width(w, [&](auto W) {
                  pk::x_apply9<W>(v, pstride, up, mid, down, rhs, gstride,
                                  lanes, cp, sub, inv, dp, h2, n);
                });
              }
            } else {
              const pk::View5 v = pk::view5(p, i0);
              with_width(w, [&](auto W) {
                pk::x_factor5<W>(v, pstride, lanes, cp, sub, inv, ch2, n);
              });
              for (std::size_t k = 0; k < xs.size(); ++k) {
                const double* up = xs[k]->row(i0 - 1);
                double* mid = xs[k]->row(i0);
                const double* down = xs[k]->row(i0 + 1);
                const double* rhs = bs[k]->row(i0);
                with_width(w, [&](auto W) {
                  pk::x_apply5<W>(v, pstride, up, mid, down, rhs, gstride,
                                  lanes, cp, sub, inv, dp, h2, n);
                });
              }
            }
          }
        });
  }
}

void packed_line_y_multi(const StencilOp& op, std::span<Grid2D* const> xs,
                         std::span<const Grid2D* const> bs,
                         rt::Scheduler& sched, ScratchPool& pool,
                         int simd_width) {
  check_packed_batch(op, xs, bs, "packed_line_y");
  if (xs.empty()) return;
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const int w = clamp_line_width(clamp_simd_width(simd_width), n);
  const bool nine = p.nine_point();
  const double* pbase = p.base();
  const long prow = p.row_stride();
  const long ppad = p.padded();
  const bool factor_once = xs.size() > 1;
  auto cp_lease = pool.acquire(n);
  auto dp_lease = pool.acquire(n);
  Grid2D& cpg = cp_lease.get();
  Grid2D& dpg = dp_lease.get();
  std::vector<ScratchPool::Lease> factor_leases;
  if (factor_once) {
    factor_leases.push_back(pool.acquire(n));
    factor_leases.push_back(pool.acquire(n));
  }
  for (int parity = 1; parity >= 0; --parity) {
    const LineGroups lg = line_groups(n, parity, w);
    if (lg.groups == 0) continue;
    sched.parallel_for(
        0, lg.groups,
        line_grain(sched, lg.groups,
                   static_cast<std::int64_t>(w) * (n - 2) *
                       static_cast<std::int64_t>(xs.size())),
        [&](std::int64_t gb, std::int64_t ge) {
          for (int g = static_cast<int>(gb); g < static_cast<int>(ge); ++g) {
            const int j0 = lg.first + 2 * g * w;
            const int lanes = std::min(w, lg.count - g * w);
            double* cp = cpg.row(g * w);
            double* dp = dpg.row(g * w);
            if (!factor_once) {
              double* xb = xs[0]->row(0);
              const double* bb = bs[0]->row(0);
              if (nine) {
                with_width(w, [&](auto W) {
                  pk::y_lines9<W>(xb, bb, pbase, prow, ppad, j0, lanes, cp, dp,
                                  h2, ch2, n);
                });
              } else {
                with_width(w, [&](auto W) {
                  pk::y_lines5<W>(xb, bb, pbase, prow, ppad, j0, lanes, cp, dp,
                                  h2, ch2, n);
                });
              }
              continue;
            }
            double* sub = factor_leases[0].get().row(g * w);
            double* inv = factor_leases[1].get().row(g * w);
            if (nine) {
              with_width(w, [&](auto W) {
                pk::y_factor9<W>(pbase, prow, ppad, j0, lanes, cp, sub, inv,
                                 ch2, n);
              });
              for (std::size_t k = 0; k < xs.size(); ++k) {
                double* xb = xs[k]->row(0);
                const double* bb = bs[k]->row(0);
                with_width(w, [&](auto W) {
                  pk::y_apply9<W>(xb, bb, pbase, prow, ppad, j0, lanes, cp, sub,
                                  inv, dp, h2, n);
                });
              }
            } else {
              with_width(w, [&](auto W) {
                pk::y_factor5<W>(pbase, prow, ppad, j0, lanes, cp, sub, inv,
                                 ch2, n);
              });
              for (std::size_t k = 0; k < xs.size(); ++k) {
                double* xb = xs[k]->row(0);
                const double* bb = bs[k]->row(0);
                with_width(w, [&](auto W) {
                  pk::y_apply5<W>(xb, bb, pbase, prow, ppad, j0, lanes, cp, sub,
                                  inv, dp, h2, n);
                });
              }
            }
          }
        });
  }
}

}  // namespace pbmg::grid
