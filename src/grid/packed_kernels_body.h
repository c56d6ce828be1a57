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
                    V::load(s.nw + j) * V::load(up + j - 1) +
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
                         s.nw[j] * up[j - 1] + s.ne[j] * up[j + 1] +
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
//   diag = ((((aW+aE)+aN)+aS)) + c·h²          (packed: diag stream + ch2)
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
                        V::load(s.nw + j) * V::load(up + j - 1) +
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
                         s.nw[j] * up[j - 1] + s.ne[j] * up[j + 1] +
                         s.sw[j] * down[j - 1] + s.se[j] * down[j + 1];
    const double nb = s.aw[j] * mid[j - 1] + s.ae[j] * mid[j + 1] + cross;
    const double d = s.ctr[j] + ch2;
    mid[j] = keep * mid[j] + omega * (h2 * rhs[j] + nb) / d;
  }
}

// ---------------------------------------------------------------------------
// Batched Thomas line solves
// ---------------------------------------------------------------------------

// All four follow line_relax.cpp solve_interior_line verbatim, one
// tridiagonal per lane:
//   inv = 1/diag(1); cp[1] = sup(1)*inv; dp[1] = rhs(1)*inv
//   k = 2..n−2: s = sub(k); pivot = diag(k) − s*cp[k−1]; inv = 1/pivot
//               cp[k] = sup(k)*inv; dp[k] = (rhs(k) − s*dp[k−1])*inv
//   put(n−2); k = n−3..1: dp[k] = dp[k] − cp[k]*dp[k+1]; put(k)
// with the legacy band definitions (sub = −coupling, diag = stream+c·h²,
// rhs folding the Dirichlet boundary at k = 1 and k = n−2; for n = 3 the
// single unknown applies both folds in sequence, like the scalar code).

template <int W>
void x_lines5(const View5& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              double* cp, double* dp, double h2, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vh2 = V::broadcast(h2);
  const V vch2 = V::broadcast(ch2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  const auto gv = [&](const double* p, int j) {
    return V::gather(p + j, gstride, lanes);
  };
  // rhs(j) = h²*b[j] + aN*up[j] + aS*down[j] (+ boundary folds), exactly
  // the legacy chain.
  const auto band_rhs = [&](int j) {
    V r = vh2 * gv(rhs, j) + sv(s.an, j) * gv(up, j) +
          sv(s.as, j) * gv(down, j);
    if (j == 1) r = r + sv(s.aw, 1) * gv(mid, 0);
    if (j == n - 2) r = r + sv(s.ae, n - 2) * gv(mid, n - 1);
    return r;
  };
  {
    const V inv = one / (sv(s.diag, 1) + vch2);
    (-sv(s.ae, 1) * inv).store(cp + 1 * W);
    (band_rhs(1) * inv).store(dp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sub = -sv(s.aw, k);
    const V pivot = (sv(s.diag, k) + vch2) - sub * V::load(cp + (k - 1) * W);
    const V inv = one / pivot;
    (-sv(s.ae, k) * inv).store(cp + k * W);
    ((band_rhs(k) - sub * V::load(dp + (k - 1) * W)) * inv).store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(mid + (n - 2), gstride, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(mid + k, gstride, lanes);
  }
}

template <int W>
void x_lines9(const View9& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              double* cp, double* dp, double h2, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vh2 = V::broadcast(h2);
  const V vch2 = V::broadcast(ch2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  const auto gv = [&](const double* p, int j) {
    return V::gather(p + j, gstride, lanes);
  };
  // cross(j) = aN*up[j] + aS*down[j] + aNW*up[j−1] + aNE*up[j+1]
  //          + aSW*down[j−1] + aSE*down[j+1]  (NinePointRows order),
  // evaluated in full before the h²*b[j] add, as the legacy band does.
  const auto band_rhs = [&](int j) {
    const V cross = sv(s.an, j) * gv(up, j) + sv(s.as, j) * gv(down, j) +
                    sv(s.nw, j) * gv(up, j - 1) +
                    sv(s.ne, j) * gv(up, j + 1) +
                    sv(s.sw, j) * gv(down, j - 1) +
                    sv(s.se, j) * gv(down, j + 1);
    V r = vh2 * gv(rhs, j) + cross;
    if (j == 1) r = r + sv(s.aw, 1) * gv(mid, 0);
    if (j == n - 2) r = r + sv(s.ae, n - 2) * gv(mid, n - 1);
    return r;
  };
  {
    const V inv = one / (sv(s.ctr, 1) + vch2);
    (-sv(s.ae, 1) * inv).store(cp + 1 * W);
    (band_rhs(1) * inv).store(dp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sub = -sv(s.aw, k);
    const V pivot = (sv(s.ctr, k) + vch2) - sub * V::load(cp + (k - 1) * W);
    const V inv = one / pivot;
    (-sv(s.ae, k) * inv).store(cp + k * W);
    ((band_rhs(k) - sub * V::load(dp + (k - 1) * W)) * inv).store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(mid + (n - 2), gstride, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(mid + k, gstride, lanes);
  }
}

// y-lines address the packed block directly (lane l = column j0 + 2l),
// so stream slots are hardcoded to PackedStencil::Stream order:
// 0 = aW, 1 = aE, 2 = aN, 3 = aS, 4 = diag (5-pt) / aNW (9-pt),
// 5 = aNE, 6 = aSW, 7 = aSE, 8 = ctr.

template <int W>
void y_lines5(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, double* cp, double* dp,
              double h2, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vh2 = V::broadcast(h2);
  const V vch2 = V::broadcast(ch2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  const auto gx = [&](int i, int dj) {
    return V::gather(xb + static_cast<long>(i) * n + j0 + dj, 2, lanes);
  };
  const auto gb = [&](int i) {
    return V::gather(bb + static_cast<long>(i) * n + j0, 2, lanes);
  };
  // rhs(i) = h²*b(i,j) + aW*x(i,j−1) + aE*x(i,j+1) (+ folds): the legacy
  // ax(i,j−1)/ax(i,j) pair is exactly the aW/aE streams of row i.
  const auto band_rhs = [&](int i) {
    V r = vh2 * gb(i) + ps(i, 0) * gx(i, -1) + ps(i, 1) * gx(i, +1);
    if (i == 1) r = r + ps(1, 2) * gx(0, 0);
    if (i == n - 2) r = r + ps(n - 2, 3) * gx(n - 1, 0);
    return r;
  };
  {
    const V inv = one / (ps(1, 4) + vch2);
    (-ps(1, 3) * inv).store(cp + 1 * W);
    (band_rhs(1) * inv).store(dp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sub = -ps(k, 2);
    const V pivot = (ps(k, 4) + vch2) - sub * V::load(cp + (k - 1) * W);
    const V inv = one / pivot;
    (-ps(k, 3) * inv).store(cp + k * W);
    ((band_rhs(k) - sub * V::load(dp + (k - 1) * W)) * inv).store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(xb + static_cast<long>(n - 2) * n + j0, 2, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(xb + static_cast<long>(k) * n + j0, 2, lanes);
  }
}

template <int W>
void y_lines9(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, double* cp, double* dp,
              double h2, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vh2 = V::broadcast(h2);
  const V vch2 = V::broadcast(ch2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  const auto gx = [&](int i, int dj) {
    return V::gather(xb + static_cast<long>(i) * n + j0 + dj, 2, lanes);
  };
  const auto gb = [&](int i) {
    return V::gather(bb + static_cast<long>(i) * n + j0, 2, lanes);
  };
  // rhs(i) = h²*b + aW*x(i,j−1) + aE*x(i,j+1) + aNW*x(i−1,j−1)
  //        + aNE*x(i−1,j+1) + aSW*x(i+1,j−1) + aSE*x(i+1,j+1) (+ folds),
  // one flat chain like the legacy 9-point y band.
  const auto band_rhs = [&](int i) {
    V r = vh2 * gb(i) + ps(i, 0) * gx(i, -1) + ps(i, 1) * gx(i, +1) +
          ps(i, 4) * gx(i - 1, -1) + ps(i, 5) * gx(i - 1, +1) +
          ps(i, 6) * gx(i + 1, -1) + ps(i, 7) * gx(i + 1, +1);
    if (i == 1) r = r + ps(1, 2) * gx(0, 0);
    if (i == n - 2) r = r + ps(n - 2, 3) * gx(n - 1, 0);
    return r;
  };
  {
    const V inv = one / (ps(1, 8) + vch2);
    (-ps(1, 3) * inv).store(cp + 1 * W);
    (band_rhs(1) * inv).store(dp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sub = -ps(k, 2);
    const V pivot = (ps(k, 8) + vch2) - sub * V::load(cp + (k - 1) * W);
    const V inv = one / pivot;
    (-ps(k, 3) * inv).store(cp + k * W);
    ((band_rhs(k) - sub * V::load(dp + (k - 1) * W)) * inv).store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(xb + static_cast<long>(n - 2) * n + j0, 2, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(xb + static_cast<long>(k) * n + j0, 2, lanes);
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS Thomas split (see packed_rows.h)
// ---------------------------------------------------------------------------

// The factor kernels run the x_lines*/y_lines* coefficient subexpressions
// verbatim — same gathers, same negations, same association — so the cp
// and inv values a batch reuses carry the exact bits the solo solve
// computes inline.  sub[1·W..] is never stored (the k = 1 row has no
// sub-diagonal) and never loaded by the apply kernels.

template <int W>
void x_factor5(const View5& s, long pstride, int lanes, double* cp,
               double* sub, double* inv, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vch2 = V::broadcast(ch2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  {
    const V iv = one / (sv(s.diag, 1) + vch2);
    iv.store(inv + 1 * W);
    (-sv(s.ae, 1) * iv).store(cp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = -sv(s.aw, k);
    const V pivot = (sv(s.diag, k) + vch2) - sb * V::load(cp + (k - 1) * W);
    const V iv = one / pivot;
    sb.store(sub + k * W);
    iv.store(inv + k * W);
    (-sv(s.ae, k) * iv).store(cp + k * W);
  }
}

template <int W>
void x_factor9(const View9& s, long pstride, int lanes, double* cp,
               double* sub, double* inv, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vch2 = V::broadcast(ch2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  {
    const V iv = one / (sv(s.ctr, 1) + vch2);
    iv.store(inv + 1 * W);
    (-sv(s.ae, 1) * iv).store(cp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = -sv(s.aw, k);
    const V pivot = (sv(s.ctr, k) + vch2) - sb * V::load(cp + (k - 1) * W);
    const V iv = one / pivot;
    sb.store(sub + k * W);
    iv.store(inv + k * W);
    (-sv(s.ae, k) * iv).store(cp + k * W);
  }
}

template <int W>
void x_apply5(const View5& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              const double* cp, const double* sub, const double* inv,
              double* dp, double h2, int n) {
  using V = simd::Vec<W>;
  const V vh2 = V::broadcast(h2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  const auto gv = [&](const double* p, int j) {
    return V::gather(p + j, gstride, lanes);
  };
  const auto band_rhs = [&](int j) {
    V r = vh2 * gv(rhs, j) + sv(s.an, j) * gv(up, j) +
          sv(s.as, j) * gv(down, j);
    if (j == 1) r = r + sv(s.aw, 1) * gv(mid, 0);
    if (j == n - 2) r = r + sv(s.ae, n - 2) * gv(mid, n - 1);
    return r;
  };
  (band_rhs(1) * V::load(inv + 1 * W)).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = V::load(sub + k * W);
    ((band_rhs(k) - sb * V::load(dp + (k - 1) * W)) * V::load(inv + k * W))
        .store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(mid + (n - 2), gstride, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(mid + k, gstride, lanes);
  }
}

template <int W>
void x_apply9(const View9& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              const double* cp, const double* sub, const double* inv,
              double* dp, double h2, int n) {
  using V = simd::Vec<W>;
  const V vh2 = V::broadcast(h2);
  const auto sv = [&](const double* p, int j) {
    return V::gather(p + j, pstride, lanes);
  };
  const auto gv = [&](const double* p, int j) {
    return V::gather(p + j, gstride, lanes);
  };
  const auto band_rhs = [&](int j) {
    const V cross = sv(s.an, j) * gv(up, j) + sv(s.as, j) * gv(down, j) +
                    sv(s.nw, j) * gv(up, j - 1) +
                    sv(s.ne, j) * gv(up, j + 1) +
                    sv(s.sw, j) * gv(down, j - 1) +
                    sv(s.se, j) * gv(down, j + 1);
    V r = vh2 * gv(rhs, j) + cross;
    if (j == 1) r = r + sv(s.aw, 1) * gv(mid, 0);
    if (j == n - 2) r = r + sv(s.ae, n - 2) * gv(mid, n - 1);
    return r;
  };
  (band_rhs(1) * V::load(inv + 1 * W)).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = V::load(sub + k * W);
    ((band_rhs(k) - sb * V::load(dp + (k - 1) * W)) * V::load(inv + k * W))
        .store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(mid + (n - 2), gstride, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(mid + k, gstride, lanes);
  }
}

template <int W>
void y_factor5(const double* pbase, long prow, long ppad, int j0, int lanes,
               double* cp, double* sub, double* inv, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vch2 = V::broadcast(ch2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  {
    const V iv = one / (ps(1, 4) + vch2);
    iv.store(inv + 1 * W);
    (-ps(1, 3) * iv).store(cp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = -ps(k, 2);
    const V pivot = (ps(k, 4) + vch2) - sb * V::load(cp + (k - 1) * W);
    const V iv = one / pivot;
    sb.store(sub + k * W);
    iv.store(inv + k * W);
    (-ps(k, 3) * iv).store(cp + k * W);
  }
}

template <int W>
void y_factor9(const double* pbase, long prow, long ppad, int j0, int lanes,
               double* cp, double* sub, double* inv, double ch2, int n) {
  using V = simd::Vec<W>;
  const V one = V::broadcast(1.0);
  const V vch2 = V::broadcast(ch2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  {
    const V iv = one / (ps(1, 8) + vch2);
    iv.store(inv + 1 * W);
    (-ps(1, 3) * iv).store(cp + 1 * W);
  }
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = -ps(k, 2);
    const V pivot = (ps(k, 8) + vch2) - sb * V::load(cp + (k - 1) * W);
    const V iv = one / pivot;
    sb.store(sub + k * W);
    iv.store(inv + k * W);
    (-ps(k, 3) * iv).store(cp + k * W);
  }
}

template <int W>
void y_apply5(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, const double* cp,
              const double* sub, const double* inv, double* dp, double h2,
              int n) {
  using V = simd::Vec<W>;
  const V vh2 = V::broadcast(h2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  const auto gx = [&](int i, int dj) {
    return V::gather(xb + static_cast<long>(i) * n + j0 + dj, 2, lanes);
  };
  const auto gb = [&](int i) {
    return V::gather(bb + static_cast<long>(i) * n + j0, 2, lanes);
  };
  const auto band_rhs = [&](int i) {
    V r = vh2 * gb(i) + ps(i, 0) * gx(i, -1) + ps(i, 1) * gx(i, +1);
    if (i == 1) r = r + ps(1, 2) * gx(0, 0);
    if (i == n - 2) r = r + ps(n - 2, 3) * gx(n - 1, 0);
    return r;
  };
  (band_rhs(1) * V::load(inv + 1 * W)).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = V::load(sub + k * W);
    ((band_rhs(k) - sb * V::load(dp + (k - 1) * W)) * V::load(inv + k * W))
        .store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(xb + static_cast<long>(n - 2) * n + j0, 2, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(xb + static_cast<long>(k) * n + j0, 2, lanes);
  }
}

template <int W>
void y_apply9(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, const double* cp,
              const double* sub, const double* inv, double* dp, double h2,
              int n) {
  using V = simd::Vec<W>;
  const V vh2 = V::broadcast(h2);
  const auto ps = [&](int i, int slot) {
    return V::gather(pbase + static_cast<long>(i - 1) * prow + slot * ppad + j0,
                     2, lanes);
  };
  const auto gx = [&](int i, int dj) {
    return V::gather(xb + static_cast<long>(i) * n + j0 + dj, 2, lanes);
  };
  const auto gb = [&](int i) {
    return V::gather(bb + static_cast<long>(i) * n + j0, 2, lanes);
  };
  const auto band_rhs = [&](int i) {
    V r = vh2 * gb(i) + ps(i, 0) * gx(i, -1) + ps(i, 1) * gx(i, +1) +
          ps(i, 4) * gx(i - 1, -1) + ps(i, 5) * gx(i - 1, +1) +
          ps(i, 6) * gx(i + 1, -1) + ps(i, 7) * gx(i + 1, +1);
    if (i == 1) r = r + ps(1, 2) * gx(0, 0);
    if (i == n - 2) r = r + ps(n - 2, 3) * gx(n - 1, 0);
    return r;
  };
  (band_rhs(1) * V::load(inv + 1 * W)).store(dp + 1 * W);
  for (int k = 2; k <= n - 2; ++k) {
    const V sb = V::load(sub + k * W);
    ((band_rhs(k) - sb * V::load(dp + (k - 1) * W)) * V::load(inv + k * W))
        .store(dp + k * W);
  }
  V next = V::load(dp + (n - 2) * W);
  next.scatter(xb + static_cast<long>(n - 2) * n + j0, 2, lanes);
  for (int k = n - 3; k >= 1; --k) {
    next = V::load(dp + k * W) - V::load(cp + k * W) * next;
    next.store(dp + k * W);
    next.scatter(xb + static_cast<long>(k) * n + j0, 2, lanes);
  }
}

// ---------------------------------------------------------------------------
// Constant-coefficient Poisson rows and the grid transfers
// ---------------------------------------------------------------------------

template <int W>
void poisson_residual_row(const double* up, const double* mid,
                          const double* down, const double* rhs, double* out,
                          double inv_h2, int n) {
  using V = simd::Vec<W>;
  const V vinv = V::broadcast(inv_h2);
  const V four = V::broadcast(4.0);
  int j = 1;
  for (; j + W <= n - 1; j += W) {
    (V::load(rhs + j) -
     (four * V::load(mid + j) - V::load(up + j) - V::load(down + j) -
      V::load(mid + j - 1) - V::load(mid + j + 1)) *
         vinv)
        .store(out + j);
  }
  for (; j <= n - 2; ++j) {
    out[j] = rhs[j] - (4.0 * mid[j] - up[j] - down[j] - mid[j - 1] -
                       mid[j + 1]) *
                          inv_h2;
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
  template void x_lines5<W>(const View5&, long, const double*, double*,       \
                            const double*, const double*, long, int, double*, \
                            double*, double, double, int);                    \
  template void x_lines9<W>(const View9&, long, const double*, double*,       \
                            const double*, const double*, long, int, double*, \
                            double*, double, double, int);                    \
  template void y_lines5<W>(double*, const double*, const double*, long,      \
                            long, int, int, double*, double*, double, double, \
                            int);                                             \
  template void y_lines9<W>(double*, const double*, const double*, long,      \
                            long, int, int, double*, double*, double, double, \
                            int);                                             \
  template void x_factor5<W>(const View5&, long, int, double*, double*,       \
                             double*, double, int);                           \
  template void x_factor9<W>(const View9&, long, int, double*, double*,       \
                             double*, double, int);                           \
  template void x_apply5<W>(const View5&, long, const double*, double*,       \
                            const double*, const double*, long, int,          \
                            const double*, const double*, const double*,      \
                            double*, double, int);                            \
  template void x_apply9<W>(const View9&, long, const double*, double*,       \
                            const double*, const double*, long, int,          \
                            const double*, const double*, const double*,      \
                            double*, double, int);                            \
  template void y_factor5<W>(const double*, long, long, int, int, double*,    \
                             double*, double*, double, int);                  \
  template void y_factor9<W>(const double*, long, long, int, int, double*,    \
                             double*, double*, double, int);                  \
  template void y_apply5<W>(double*, const double*, const double*, long,      \
                            long, int, int, const double*, const double*,     \
                            const double*, double*, double, int);             \
  template void y_apply9<W>(double*, const double*, const double*, long,      \
                            long, int, int, const double*, const double*,     \
                            const double*, double*, double, int);             \
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
