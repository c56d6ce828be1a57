#pragma once

/// \file packed_kernels_body.h
/// Definitions of the packed_rows.h templates plus the
/// PBMG_INSTANTIATE_PACKED_KERNELS(W) macro.  Included ONLY by the
/// per-width translation units (packed_kernels_w1/w2/w4.cpp) — see
/// packed_rows.h for why the definitions must not leak into TUs built
/// with different ISA flags.
///
/// Every expression below mirrors the legacy scalar kernel it replaces
/// term by term: same left-to-right association, negation via exact
/// sign flip, no FMA (build-wide -ffp-contract=off).  Do not "simplify"
/// the arithmetic — reassociating any chain breaks the bitwise
/// packed↔legacy parity that packed_kernels_test pins.

#include "grid/packed_rows.h"
#include "grid/simd.h"

namespace pbmg::grid::pk {

// ---------------------------------------------------------------------------
// Residual / apply
// ---------------------------------------------------------------------------

// Legacy order (grid_ops.cpp stencil_loop):
//   av = (diag*mid[j] − aN*up[j] − aS*down[j] − aW*mid[j−1] − aE*mid[j+1])
//        * inv_h2 + c*mid[j]
//   out[j] = rhs ? rhs[j] − av : av
template <int W>
void stencil_row5(const View5& s, const double* up, const double* mid,
                  const double* down, const double* rhs, double* out,
                  double inv_h2, double c, int n) {
  using V = simd::Vec<W>;
  const V vinv = V::broadcast(inv_h2);
  const V vc = V::broadcast(c);
  int j = 1;
  for (; j + W <= n - 1; j += W) {
    const V m = V::load(mid + j);
    const V av = (V::load(s.diag + j) * m -
                  V::load(s.an + j) * V::load(up + j) -
                  V::load(s.as + j) * V::load(down + j) -
                  V::load(s.aw + j) * V::load(mid + j - 1) -
                  V::load(s.ae + j) * V::load(mid + j + 1)) *
                     vinv +
                 vc * m;
    if (rhs != nullptr) {
      (V::load(rhs + j) - av).store(out + j);
    } else {
      av.store(out + j);
    }
  }
  for (; j <= n - 2; ++j) {
    const double m = mid[j];
    const double av = (s.diag[j] * m - s.an[j] * up[j] - s.as[j] * down[j] -
                       s.aw[j] * mid[j - 1] - s.ae[j] * mid[j + 1]) *
                          inv_h2 +
                      c * m;
    out[j] = rhs != nullptr ? rhs[j] - av : av;
  }
}

// Legacy order (grid_ops.cpp stencil_loop9 via NinePointRows): the cross
// sum is its own left-associated chain, added to the in-row pair last —
//   cross = aN*up[j] + aS*down[j] + aNW*up[j−1] + aNE*up[j+1]
//         + aSW*down[j−1] + aSE*down[j+1]
//   nb = (aW*mid[j−1] + aE*mid[j+1]) + cross
//   av = (ctr*mid[j] − nb)*inv_h2 + c*mid[j]
template <int W>
void stencil_row9(const View9& s, const double* up, const double* mid,
                  const double* down, const double* rhs, double* out,
                  double inv_h2, double c, int n) {
  using V = simd::Vec<W>;
  const V vinv = V::broadcast(inv_h2);
  const V vc = V::broadcast(c);
  int j = 1;
  for (; j + W <= n - 1; j += W) {
    const V m = V::load(mid + j);
    const V cross = V::load(s.an + j) * V::load(up + j) +
                    V::load(s.as + j) * V::load(down + j) +
                    V::load(s.nw + j - 1) * V::load(up + j - 1) +
                    V::load(s.ne + j) * V::load(up + j + 1) +
                    V::load(s.sw + j) * V::load(down + j - 1) +
                    V::load(s.se + j) * V::load(down + j + 1);
    const V nb = V::load(s.aw + j) * V::load(mid + j - 1) +
                 V::load(s.ae + j) * V::load(mid + j + 1) + cross;
    const V av = (V::load(s.ctr + j) * m - nb) * vinv + vc * m;
    if (rhs != nullptr) {
      (V::load(rhs + j) - av).store(out + j);
    } else {
      av.store(out + j);
    }
  }
  for (; j <= n - 2; ++j) {
    const double m = mid[j];
    const double cross = s.an[j] * up[j] + s.as[j] * down[j] +
                         s.nw[j - 1] * up[j - 1] + s.ne[j] * up[j + 1] +
                         s.sw[j] * down[j - 1] + s.se[j] * down[j + 1];
    const double nb = s.aw[j] * mid[j - 1] + s.ae[j] * mid[j + 1] + cross;
    const double av = (s.ctr[j] * m - nb) * inv_h2 + c * m;
    out[j] = rhs != nullptr ? rhs[j] - av : av;
  }
}

// ---------------------------------------------------------------------------
// SOR
// ---------------------------------------------------------------------------

// Legacy order (relax.cpp sor_sweep 5-point):
//   diag = ((((aW+aE)+aN)+aS)) + c·h²          (packed: diag grid + ch2)
//   mid[j] = keep*mid[j]
//          + omega*(h²*rhs[j] + aN*up[j] + aS*down[j]
//                   + aW*mid[j−1] + aE*mid[j+1]) / diag
//
// Both SOR rows take poisson_sor_row's wide form at W = 4: each step
// loads four consecutive columns from the first active one, so the even
// lanes are the active cells, and every neighbour an active cell reads
// is of another colour, which the pass never writes.  Updating all lanes
// from one set of unit-stride loads and keeping the odd lanes' old
// values (blend_even) therefore gives the scalar loop's bits; the odd
// lanes' values, computed from real coefficients, are discarded.  The
// next step's left neighbours load before the store, as in the Poisson
// row.  W = 1 and W = 2 run the scalar loop (two lanes keep one updated
// cell per step).
template <int W>
void sor_row5(const View5& s, const double* up, double* mid,
              const double* down, const double* rhs, double h2, double ch2,
              double omega, double keep, int j0, int n) {
  int j = j0;
  if constexpr (W >= 4) {
    using V = simd::Vec<W>;
    if (j + W <= n - 1) {
      const V vh2 = V::broadcast(h2);
      const V vch2 = V::broadcast(ch2);
      const V vom = V::broadcast(omega);
      const V vkeep = V::broadcast(keep);
      V left = V::load(mid + j - 1);
      bool more = true;
      while (more) {
        const V m = V::load(mid + j);
        const V t = vh2 * V::load(rhs + j) +
                    V::load(s.an + j) * V::load(up + j) +
                    V::load(s.as + j) * V::load(down + j) +
                    V::load(s.aw + j) * left +
                    V::load(s.ae + j) * V::load(mid + j + 1);
        const V d = V::load(s.diag + j) + vch2;
        more = j + 2 * W <= n - 1;
        if (more) left = V::load(mid + j + W - 1);
        blend_even(vkeep * m + vom * t / d, m).store(mid + j);
        j += W;
      }
    }
  }
  for (; j <= n - 2; j += 2) {
    const double d = s.diag[j] + ch2;
    mid[j] = keep * mid[j] +
             omega *
                 (h2 * rhs[j] + s.an[j] * up[j] + s.as[j] * down[j] +
                  s.aw[j] * mid[j - 1] + s.ae[j] * mid[j + 1]) /
                 d;
  }
}

// Legacy order (relax.cpp sor_sweep_nine_multi): nb via NinePointRows —
// (aW*mid[j−1] + aE*mid[j+1]) + cross — then
//   mid[j] = keep*mid[j] + omega*(h²*rhs[j] + nb)/(ctr + c·h²)
// A four-colour class's neighbours, corners included, are all in other
// classes, so the wide form holds here too.
template <int W>
void sor_row9(const View9& s, const double* up, double* mid,
              const double* down, const double* rhs, double h2, double ch2,
              double omega, double keep, int j0, int n) {
  int j = j0;
  if constexpr (W >= 4) {
    using V = simd::Vec<W>;
    if (j + W <= n - 1) {
      const V vh2 = V::broadcast(h2);
      const V vch2 = V::broadcast(ch2);
      const V vom = V::broadcast(omega);
      const V vkeep = V::broadcast(keep);
      V left = V::load(mid + j - 1);
      bool more = true;
      while (more) {
        const V m = V::load(mid + j);
        const V cross = V::load(s.an + j) * V::load(up + j) +
                        V::load(s.as + j) * V::load(down + j) +
                        V::load(s.nw + j - 1) * V::load(up + j - 1) +
                        V::load(s.ne + j) * V::load(up + j + 1) +
                        V::load(s.sw + j) * V::load(down + j - 1) +
                        V::load(s.se + j) * V::load(down + j + 1);
        const V nb = V::load(s.aw + j) * left +
                     V::load(s.ae + j) * V::load(mid + j + 1) + cross;
        const V d = V::load(s.ctr + j) + vch2;
        const V t = vh2 * V::load(rhs + j) + nb;
        more = j + 2 * W <= n - 1;
        if (more) left = V::load(mid + j + W - 1);
        blend_even(vkeep * m + vom * t / d, m).store(mid + j);
        j += W;
      }
    }
  }
  for (; j <= n - 2; j += 2) {
    const double cross = s.an[j] * up[j] + s.as[j] * down[j] +
                         s.nw[j - 1] * up[j - 1] + s.ne[j] * up[j + 1] +
                         s.sw[j] * down[j - 1] + s.se[j] * down[j + 1];
    const double nb = s.aw[j] * mid[j - 1] + s.ae[j] * mid[j + 1] + cross;
    const double d = s.ctr[j] + ch2;
    mid[j] = keep * mid[j] + omega * (h2 * rhs[j] + nb) / d;
  }
}

// ---------------------------------------------------------------------------
// Batched Thomas line solves
// ---------------------------------------------------------------------------

// The three bodies below follow line_relax.cpp solve_interior_line
// verbatim, one tridiagonal per lane:
//   inv = 1/diag(1); cp[1] = sup(1)*inv; dp[1] = rhs(1)*inv
//   k = 2..n−2: s = sub(k); pivot = diag(k) − s*cp[k−1]; inv = 1/pivot
//               cp[k] = sup(k)*inv; dp[k] = (rhs(k) − s*dp[k−1])*inv
//   put(n−2); k = n−3..1: dp[k] = dp[k] − cp[k]*dp[k+1]; put(k)
// A band supplies sub, diag, sup and rhs at line position k and stores
// the solution (put), with the legacy band definitions: sub and sup are
// negated couplings, diag is the centre (a 5-point operator's summed
// diagonal) plus c·h², and rhs folds the Dirichlet boundary at k = 1 and
// k = n−2 (for n = 3 the single unknown applies both folds in sequence,
// like the scalar code).  The 5- and 9-point bands read the operator's
// grids through the group's view of row 1: the coupling of row i, column
// j is entry j of the view's array, (i − 1)·n doubles on.  The Poisson
// band is the 5-point band with every coupling 1 and the centre 4
// (c = 0), and loads no coefficient: a coupling times a value is the
// value itself, which is exact, so it gives the legacy bands' bits on an
// operator whose grids hold 1.  Its sub and sup are −1, so the first inv
// is 0.25 and every later one is 1/(4 + cp[k−1]), the same for every
// line.

// x-lines: lane l is grid row first + 2l, position k its column.  rhs(k)
// is the legacy chain h²*b[k] + aN*up[k] + aS*down[k]; a 9-point band
// sums its six cross terms (NinePointRows order: aN, aS, aNW, aNE, aSW,
// aSE) in full before adding h²*b[k], as the legacy band does.
template <int W, LineStencil S>
struct XBand {
  using V = simd::Vec<W>;

  explicit XBand(const LineGroup& g)
      : c(g.coeffs),
        coff(static_cast<long>(g.first - 1) * g.n),
        up(g.x + static_cast<long>(g.first - 1) * g.n),
        mid(g.x + static_cast<long>(g.first) * g.n),
        down(g.x + static_cast<long>(g.first + 1) * g.n),
        b(g.b + static_cast<long>(g.first) * g.n),
        gstride(2 * static_cast<long>(g.n)),
        lanes(g.lanes),
        n(g.n),
        vh2(V::broadcast(g.h2)),
        vch2(V::broadcast(g.ch2)) {}

  V sv(const double* a, int k) const {
    return V::gather(a + coff + k, gstride, lanes);
  }
  V gv(const double* p, int k) const {
    return V::gather(p + k, gstride, lanes);
  }
  V coupling(const double* a, int k) const {
    if constexpr (S == LineStencil::kPoisson) return V::broadcast(1.0);
    else return sv(a, k);
  }
  V coupled(const double* a, int k, V v) const {
    if constexpr (S == LineStencil::kPoisson) return v;
    else return sv(a, k) * v;
  }
  V sub(int k) const { return -coupling(c.aw, k); }
  V diag(int k) const {
    if constexpr (S == LineStencil::kPoisson) return V::broadcast(4.0);
    else return sv(c.ctr, k) + vch2;
  }
  V sup(int k) const { return -coupling(c.ae, k); }
  V rhs(int k) const {
    V r = vh2 * gv(b, k);
    if constexpr (S == LineStencil::kNine) {
      r = r + (sv(c.an, k) * gv(up, k) + sv(c.as, k) * gv(down, k) +
               sv(c.nw, k - 1) * gv(up, k - 1) + sv(c.ne, k) * gv(up, k + 1) +
               sv(c.sw, k) * gv(down, k - 1) + sv(c.se, k) * gv(down, k + 1));
    } else {
      r = r + coupled(c.an, k, gv(up, k)) + coupled(c.as, k, gv(down, k));
    }
    if (k == 1) r = r + coupled(c.aw, 1, gv(mid, 0));
    if (k == n - 2) r = r + coupled(c.ae, n - 2, gv(mid, n - 1));
    return r;
  }
  void put(int k, V v) const { v.scatter(mid + k, gstride, lanes); }

  View9 c;
  long coff;  // row first's offset from row 1
  const double* up;
  double* mid;
  const double* down;
  const double* b;
  long gstride;
  int lanes;
  int n;
  V vh2;
  V vch2;
};

// y-lines: lane l is grid column first + 2l, position i its row.  rhs(i)
// is h²*b + aW*x(i,j−1) + aE*x(i,j+1), which a 9-point band continues
// with aNW*x(i−1,j−1) + aNE*x(i−1,j+1) + aSW*x(i+1,j−1) + aSE*x(i+1,j+1)
// as one flat chain, like the legacy 9-point y band.
template <int W, LineStencil S>
struct YBand {
  using V = simd::Vec<W>;

  explicit YBand(const LineGroup& g)
      : c(g.coeffs),
        first(g.first),
        x(g.x + g.first),
        b(g.b + g.first),
        lanes(g.lanes),
        n(g.n),
        vh2(V::broadcast(g.h2)),
        vch2(V::broadcast(g.ch2)) {}

  V ps(int i, const double* a, int dj = 0) const {
    return V::gather(a + static_cast<long>(i - 1) * n + first + dj, 2,
                     lanes);
  }
  V gx(int i, int dj) const {
    return V::gather(x + static_cast<long>(i) * n + dj, 2, lanes);
  }
  V coupling(int i, const double* a) const {
    if constexpr (S == LineStencil::kPoisson) return V::broadcast(1.0);
    else return ps(i, a);
  }
  V coupled(int i, const double* a, V v) const {
    if constexpr (S == LineStencil::kPoisson) return v;
    else return ps(i, a) * v;
  }
  V sub(int i) const { return -coupling(i, c.an); }
  V diag(int i) const {
    if constexpr (S == LineStencil::kPoisson) return V::broadcast(4.0);
    else return ps(i, c.ctr) + vch2;
  }
  V sup(int i) const { return -coupling(i, c.as); }
  V rhs(int i) const {
    V r = vh2 * V::gather(b + static_cast<long>(i) * n, 2, lanes) +
          coupled(i, c.aw, gx(i, -1)) + coupled(i, c.ae, gx(i, +1));
    if constexpr (S == LineStencil::kNine) {
      r = r + ps(i, c.nw, -1) * gx(i - 1, -1) + ps(i, c.ne) * gx(i - 1, +1) +
          ps(i, c.sw) * gx(i + 1, -1) + ps(i, c.se) * gx(i + 1, +1);
    }
    if (i == 1) r = r + coupled(1, c.an, gx(0, 0));
    if (i == n - 2) r = r + coupled(n - 2, c.as, gx(n - 1, 0));
    return r;
  }
  void put(int i, V v) const {
    v.scatter(x + static_cast<long>(i) * n, 2, lanes);
  }

  View9 c;
  int first;
  double* x;
  const double* b;
  int lanes;
  int n;
  V vh2;
  V vch2;
};

template <int W, typename Band>
void back_substitute(const Band& band, const double* cp, const double* dp,
                     int n) {
  using V = simd::Vec<W>;
  V next = V::load(dp + (n - 2) * W);
  band.put(n - 2, next);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    band.put(k, next);
  }
}

// One-pass: eliminate and substitute in one walk of the bands.
template <int W, typename Band>
void solve_lines(const Band& band, double* cp, double* dp, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  V inv = one / band.diag(1);
  (band.sup(1) * inv).store(cp + 1 * W);
  (band.rhs(1) * inv).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V s = band.sub(k);
    inv = one / (band.diag(k) - s * V::load(cp + (k - 1) * W));
    (band.sup(k) * inv).store(cp + k * W);
    ((band.rhs(k) - s * V::load(dp + (k - 1) * W)) * inv).store(dp + k * W);
  }
  back_substitute<W>(band, cp, dp, n);
}

// Factor: the one-pass walk's cp, sub and inv, without the rhs.
// sub[1·W..] is never stored (the k = 1 row has no sub-diagonal) and
// never loaded by the apply body.
template <int W, typename Band>
void factor_lines(const Band& band, double* cp, double* sub, double* inv,
                  int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  V iv = one / band.diag(1);
  iv.store(inv + 1 * W);
  (band.sup(1) * iv).store(cp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V s = band.sub(k);
    iv = one / (band.diag(k) - s * V::load(cp + (k - 1) * W));
    s.store(sub + k * W);
    iv.store(inv + k * W);
    (band.sup(k) * iv).store(cp + k * W);
  }
}

// Apply: the one-pass walk's rhs recurrence against stored factors.
template <int W, typename Band>
void apply_lines(const Band& band, const double* cp, const double* sub,
                 const double* inv, double* dp, int n) {
  using V = simd::Vec<W>;
  (band.rhs(1) * V::load(inv + 1 * W)).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    ((band.rhs(k) - V::load(sub + k * W) * V::load(dp + (k - 1) * W)) *
     V::load(inv + k * W))
        .store(dp + k * W);
  }
  back_substitute<W>(band, cp, dp, n);
}

template <int W, typename Band>
void solve_group(const Band& band, const LineGroup& g) {
  if (g.slots == 1) {
    solve_lines<W>(band, g.cp, g.dp, g.n);
    return;
  }
  if (g.slot == 0) factor_lines<W>(band, g.cp, g.sub, g.inv, g.n);
  apply_lines<W>(band, g.cp, g.sub, g.inv, g.dp, g.n);
}

template <int W, template <int, LineStencil> class Band>
void solve_stencil(const LineGroup& g) {
  switch (g.stencil) {
    case LineStencil::kPoisson:
      return solve_group<W>(Band<W, LineStencil::kPoisson>(g), g);
    case LineStencil::kFive:
      return solve_group<W>(Band<W, LineStencil::kFive>(g), g);
    case LineStencil::kNine:
      return solve_group<W>(Band<W, LineStencil::kNine>(g), g);
  }
}

template <int W>
void line_group(const LineGroup& g) {
  if (g.columns) solve_stencil<W, YBand>(g);
  else solve_stencil<W, XBand>(g);
}

// ---------------------------------------------------------------------------
// Constant-coefficient Poisson rows and the grid transfers
// ---------------------------------------------------------------------------

// The rhs test is hoisted out of the loops: this row is the hot residual
// of every Poisson cycle.
template <int W, bool WithRhs>
void poisson_row_as(const double* up, const double* mid, const double* down,
                    const double* rhs, double* out, double inv_h2, int n) {
  using V = simd::Vec<W>;
  const V vinv = V::broadcast(inv_h2);
  const V four = V::broadcast(4.0);
  int j = 1;
  for (; j + W <= n - 1; j += W) {
    const V av = (four * V::load(mid + j) - V::load(up + j) -
                  V::load(down + j) - V::load(mid + j - 1) -
                  V::load(mid + j + 1)) *
                 vinv;
    if constexpr (WithRhs) (V::load(rhs + j) - av).store(out + j);
    else av.store(out + j);
  }
  for (; j <= n - 2; ++j) {
    const double av =
        (4.0 * mid[j] - up[j] - down[j] - mid[j - 1] - mid[j + 1]) * inv_h2;
    if constexpr (WithRhs) out[j] = rhs[j] - av;
    else out[j] = av;
  }
}

template <int W>
void poisson_residual_row(const double* up, const double* mid,
                          const double* down, const double* rhs, double* out,
                          double inv_h2, int n) {
  if (rhs != nullptr) {
    poisson_row_as<W, true>(up, mid, down, rhs, out, inv_h2, n);
  } else {
    poisson_row_as<W, false>(up, mid, down, rhs, out, inv_h2, n);
  }
}

// W = 4 walks four consecutive columns from the first active one, so
// every step starts on the active colour and the even lanes are the
// active cells; each of them reads only other-colour neighbours, which
// this pass never writes, so updating all lanes from one set of loads and
// keeping the odd lanes' old values reproduces the scalar sweep exactly.
// Each step loads the next step's left neighbours before its own store:
// loaded after it, they would straddle the store, which a CPU cannot
// forward, and every step would stall until the store left the buffer.
// The one lane they share is an odd lane the store leaves unchanged.
// Two lanes would keep one updated cell per step, which measures slower
// than the scalar loop, so W = 2 runs the scalar loop like W = 1.
template <int W>
void poisson_sor_row(const double* up, double* mid, const double* down,
                     const double* rhs, double h2, double quarter_omega,
                     double keep, int j0, int n) {
  int j = j0;
  if constexpr (W >= 4) {
    using V = simd::Vec<W>;
    if (j + W <= n - 1) {
      const V vh2 = V::broadcast(h2);
      const V vqo = V::broadcast(quarter_omega);
      const V vkeep = V::broadcast(keep);
      V left = V::load(mid + j - 1);
      bool more = true;
      while (more) {
        const V m = V::load(mid + j);
        const V t = vh2 * V::load(rhs + j) + V::load(up + j) +
                    V::load(down + j) + left + V::load(mid + j + 1);
        more = j + 2 * W <= n - 1;
        if (more) left = V::load(mid + j + W - 1);
        blend_even(vkeep * m + vqo * t, m).store(mid + j);
        j += W;
      }
    }
  }
  for (; j <= n - 2; j += 2) {
    mid[j] = keep * mid[j] + quarter_omega * (h2 * rhs[j] + up[j] + down[j] +
                                              mid[j - 1] + mid[j + 1]);
  }
}

// W = 4 evaluates the stencil at eight consecutive fine columns from the
// even column 2cj with unit-stride loads and keeps the even lanes (the
// coarse points); the odd lanes are discarded.  Two lanes would keep one
// value per vector, which measures slower than the scalar loop, so W = 2
// runs the scalar loop like W = 1.
template <int W>
void restrict_row(const double* up, const double* mid, const double* down,
                  double* out, int nc) {
  int cj = 1;
  if constexpr (W >= 4) {
    using V = simd::Vec<W>;
    const V four = V::broadcast(4.0);
    const V two = V::broadcast(2.0);
    const V sixteenth = V::broadcast(1.0 / 16.0);
    const auto weigh = [&](int f) {
      return (four * V::load(mid + f) +
              two * (V::load(up + f) + V::load(down + f) +
                     V::load(mid + f - 1) + V::load(mid + f + 1)) +
              V::load(up + f - 1) + V::load(up + f + 1) +
              V::load(down + f - 1) + V::load(down + f + 1)) *
             sixteenth;
    };
    for (; cj + W <= nc - 1; cj += W) {
      V even;
      V odd;
      deinterleave(weigh(2 * cj), weigh(2 * cj + W), even, odd);
      even.store(out + cj);
    }
  }
  for (; cj <= nc - 2; ++cj) {
    const int fj = 2 * cj;
    out[cj] = (4.0 * mid[fj] +
               2.0 * (up[fj] + down[fj] + mid[fj - 1] + mid[fj + 1]) +
               up[fj - 1] + up[fj + 1] + down[fj - 1] + down[fj + 1]) *
              (1.0 / 16.0);
  }
}

// W > 1 covers fine columns 2cj+1 … 2cj+2W per step from W coarse values
// a = c[cj…] and their right neighbours b = c[cj+1…]: odd columns take
// the midpoint of a and b, even columns b, interleaved into two stores.
template <int W, bool Assign>
void interpolate_row_as(const double* c0, const double* c1, double* out,
                        int n) {
  using V = simd::Vec<W>;
  const auto put = [](double* p, double v) {
    if constexpr (Assign) *p = v;
    else *p += v;
  };
  int cj = 0;
  if (W > 1) {
    const V half = V::broadcast(0.5);
    const V quarter = V::broadcast(0.25);
    const auto put_v = [](double* p, V v) {
      if constexpr (Assign) v.store(p);
      else (V::load(p) + v).store(p);
    };
    for (; 2 * (cj + W) <= n - 2; cj += W) {
      const V a0 = V::load(c0 + cj);
      const V b0 = V::load(c0 + cj + 1);
      V lo;
      V hi;
      if (c1 == nullptr) {
        interleave(half * (a0 + b0), b0, lo, hi);
      } else {
        const V a1 = V::load(c1 + cj);
        const V b1 = V::load(c1 + cj + 1);
        interleave(quarter * (a0 + b0 + a1 + b1), half * (b0 + b1), lo, hi);
      }
      put_v(out + 2 * cj + 1, lo);
      put_v(out + 2 * cj + 1 + W, hi);
    }
  }
  for (int j = 2 * cj + 1; j <= n - 2; ++j) {
    if (c1 == nullptr) {
      put(out + j, j % 2 == 0 ? c0[j / 2] : 0.5 * (c0[j / 2] + c0[j / 2 + 1]));
    } else {
      put(out + j, j % 2 == 0 ? 0.5 * (c0[j / 2] + c1[j / 2])
                              : 0.25 * (c0[j / 2] + c0[j / 2 + 1] +
                                        c1[j / 2] + c1[j / 2 + 1]));
    }
  }
}

template <int W>
void interpolate_row(const double* c0, const double* c1, double* out,
                     bool assign, int n) {
  if (assign) {
    interpolate_row_as<W, true>(c0, c1, out, n);
  } else {
    interpolate_row_as<W, false>(c0, c1, out, n);
  }
}

}  // namespace pbmg::grid::pk

// One width TU invokes this to emit the only definitions of its W.
#define PBMG_INSTANTIATE_PACKED_KERNELS(W)                                    \
  namespace pbmg::grid::pk {                                                  \
  template void stencil_row5<W>(const View5&, const double*, const double*,   \
                                const double*, const double*, double*,        \
                                double, double, int);                         \
  template void stencil_row9<W>(const View9&, const double*, const double*,   \
                                const double*, const double*, double*,        \
                                double, double, int);                         \
  template void sor_row5<W>(const View5&, const double*, double*,             \
                            const double*, const double*, double, double,     \
                            double, double, int, int);                        \
  template void sor_row9<W>(const View9&, const double*, double*,             \
                            const double*, const double*, double, double,     \
                            double, double, int, int);                        \
  template void line_group<W>(const LineGroup&);                             \
  template void poisson_residual_row<W>(const double*, const double*,         \
                                        const double*, const double*,         \
                                        double*, double, int);                \
  template void poisson_sor_row<W>(const double*, double*, const double*,     \
                                   const double*, double, double, double,     \
                                   int, int);                                 \
  template void restrict_row<W>(const double*, const double*, const double*,  \
                                double*, int);                                \
  template void interpolate_row<W>(const double*, const double*, double*,     \
                                   bool, int);                                \
  }
