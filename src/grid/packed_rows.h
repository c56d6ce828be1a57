#pragma once

/// \file packed_rows.h
/// Width-templated flat row kernels: the packed variable-coefficient
/// sweeps over a PackedStencil row block, and the constant-coefficient
/// Poisson residual and red-black SOR plus the full-weighting restriction
/// and bilinear interpolation that every operator shares.
///
/// Everything here works on raw `double*` streams — no Grid2D, no
/// scheduler, no StencilOp — so the per-width translation units
/// (packed_kernels_w1/w2/w4.cpp) that define these templates can be
/// compiled with different ISA flags without any shared inline code
/// crossing TU boundaries (packed_kernels_w4.cpp is built with -mavx2 on
/// x86; mixing ISAs in merged inline functions would be an ODR bug).
/// Only declarations live here; packed_kernels_body.h holds the
/// definitions and each width TU explicitly instantiates one W, so the
/// dispatching TUs (compiled with baseline flags) link against exactly
/// one copy per width.
///
/// Parity contract: every kernel reproduces the corresponding scalar
/// loop's floating-point expression tree verbatim (same association,
/// same negations), so for any W the results are bitwise identical to
/// the W = 1 instantiation, which is the scalar path.  See simd.h for
/// why that holds per lane.

namespace pbmg::grid {
class PackedStencil;
}

namespace pbmg::grid::pk {

/// One interior row of 5-point streams, pre-shifted so entry [j] is what
/// column j's update reads (PackedStencil::Stream order).
struct View5 {
  const double* aw;
  const double* ae;
  const double* an;
  const double* as;
  const double* diag;  ///< ((aW+aE)+aN)+aS, precomputed at pack time
};

/// One interior row of 9-point streams.
struct View9 {
  const double* aw;
  const double* ae;
  const double* an;
  const double* as;
  const double* nw;
  const double* ne;
  const double* sw;
  const double* se;
  const double* ctr;
};

/// The streams of interior grid row i of a 5- or 9-point packed block
/// (defined in packed_kernels.cpp, outside the per-width TUs).
View5 view5(const PackedStencil& p, int i);
View9 view9(const PackedStencil& p, int i);

/// Residual/apply over one interior row: out[j] = A·x (rhs == nullptr)
/// or rhs[j] − A·x (residual).  Unit-stride W-wide inner loop + scalar
/// tail; j runs over [1, n−2].
template <int W>
void stencil_row5(const View5& s, const double* up, const double* mid,
                  const double* down, const double* rhs, double* out,
                  double inv_h2, double c, int n);

template <int W>
void stencil_row9(const View9& s, const double* up, const double* mid,
                  const double* down, const double* rhs, double* out,
                  double inv_h2, double c, int n);

/// One coloured Gauss–Seidel/SOR pass over a row: updates mid[j] in
/// place for j = j0, j0+2, … (the row's active colour; for a 9-point
/// operator, one of a row's two four-colour classes).  W = 4 loads four
/// consecutive columns of rows i−1, i and i+1 and the coefficient streams
/// and stores four blended columns of row i, writing the other colour's
/// cells back unchanged, so the caller must own the other colour's
/// readers for the pass: no other thread may read row i or write rows
/// i±1 while it runs.  W = 1 and W = 2 run the scalar loop, which reads
/// only the other colour's cells and writes only the active ones, so it
/// is safe on any row.
template <int W>
void sor_row5(const View5& s, const double* up, double* mid,
              const double* down, const double* rhs, double h2, double ch2,
              double omega, double keep, int j0, int n);

template <int W>
void sor_row9(const View9& s, const double* up, double* mid,
              const double* down, const double* rhs, double h2, double ch2,
              double omega, double keep, int j0, int n);

/// Batched Thomas solve of W same-parity x-lines (grid rows).  Lane l
/// works on grid row i0 + 2l: its streams sit at `s.* + l*pstride`
/// (pstride = 2·PackedStencil::row_stride()) and its grid rows at
/// `{up,mid,rhs,down} + l*gstride` (gstride = 2n).  `lanes` ≤ W active
/// lanes; inactive tail lanes duplicate the last active line's loads and
/// are never stored.  cp/dp are W-interleaved scratch (entry [k·W+l]),
/// each at least (n−1)·W doubles.
template <int W>
void x_lines5(const View5& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              double* cp, double* dp, double h2, double ch2, int n);

template <int W>
void x_lines9(const View9& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              double* cp, double* dp, double h2, double ch2, int n);

/// Batched Thomas solve of W same-parity y-lines (grid columns).  Lane l
/// works on column j0 + 2l of the n×n grids xb (solution, updated in
/// place) and bb (rhs).  Packed streams are addressed from the block
/// base: stream `s` of grid row i is `pbase + (i−1)·prow + s·ppad`
/// (stream slots follow PackedStencil::Stream).
template <int W>
void y_lines5(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, double* cp, double* dp,
              double h2, double ch2, int n);

template <int W>
void y_lines9(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, double* cp, double* dp,
              double h2, double ch2, int n);

/// Multi-RHS Thomas split.  The forward-elimination pivots are a pure
/// function of the operator, so a batch of K right-hand sides factors
/// each line group once and replays only the rhs recurrence per
/// iterate.  x_factor*/y_factor* store cp exactly as x_lines*/y_lines*
/// compute it, plus sub[k·W+l] = −sub-diagonal(k) and inv[k·W+l] =
/// 1/pivot(k); x_apply*/y_apply* then reproduce the solo dp forward
/// recurrence and back substitution operation-for-operation (same band
/// rhs chain, multiplied by the identical stored inv), so every iterate
/// of the batch is bitwise identical to its solo solve.
template <int W>
void x_factor5(const View5& s, long pstride, int lanes, double* cp,
               double* sub, double* inv, double ch2, int n);

template <int W>
void x_factor9(const View9& s, long pstride, int lanes, double* cp,
               double* sub, double* inv, double ch2, int n);

template <int W>
void x_apply5(const View5& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              const double* cp, const double* sub, const double* inv,
              double* dp, double h2, int n);

template <int W>
void x_apply9(const View9& s, long pstride, const double* up, double* mid,
              const double* down, const double* rhs, long gstride, int lanes,
              const double* cp, const double* sub, const double* inv,
              double* dp, double h2, int n);

template <int W>
void y_factor5(const double* pbase, long prow, long ppad, int j0, int lanes,
               double* cp, double* sub, double* inv, double ch2, int n);

template <int W>
void y_factor9(const double* pbase, long prow, long ppad, int j0, int lanes,
               double* cp, double* sub, double* inv, double ch2, int n);

template <int W>
void y_apply5(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, const double* cp,
              const double* sub, const double* inv, double* dp, double h2,
              int n);

template <int W>
void y_apply9(double* xb, const double* bb, const double* pbase, long prow,
              long ppad, int j0, int lanes, const double* cp,
              const double* sub, const double* inv, double* dp, double h2,
              int n);

// ---------------------------------------------------------------------------
// Constant-coefficient Poisson rows and the grid transfers
// ---------------------------------------------------------------------------

/// Poisson residual over one interior row: out[j] = rhs[j] −
/// (4·mid[j] − up[j] − down[j] − mid[j−1] − mid[j+1])·inv_h2 for j in
/// [1, n−2].
template <int W>
void poisson_residual_row(const double* up, const double* mid,
                          const double* down, const double* rhs, double* out,
                          double inv_h2, int n);

/// One red-black Poisson SOR pass over a row: updates mid[j] in place for
/// j = j0, j0+2, …, n−2.  W = 4 loads four consecutive columns of rows
/// i−1, i, i+1 and stores four blended columns of row i — the other
/// colour's cells are written back unchanged — so the caller must own
/// rows i−1 and i+1 for the whole pass.  W = 1 and W = 2 run the scalar
/// loop, which reads only the other colour of rows i±1 and writes only
/// the active cells, so it is safe on any row.
template <int W>
void poisson_sor_row(const double* up, double* mid, const double* down,
                     const double* rhs, double h2, double quarter_omega,
                     double keep, int j0, int n);

/// Full weighting of fine rows up/mid/down (2ci−1, 2ci, 2ci+1) onto one
/// coarse row: out[cj] for cj in [1, nc−2], nc the coarse side.  Reads
/// fine columns [1, 2nc−2].
template <int W>
void restrict_row(const double* up, const double* mid, const double* down,
                  double* out, int nc);

/// Bilinear interpolation onto interior fine row i of side n, over
/// columns [1, n−2]: an even row passes its coarse row i/2 as c0 and
/// c1 = nullptr, an odd row passes coarse rows i/2 and i/2 + 1.  Assigns
/// out[j] = P·c or adds out[j] += P·c.
template <int W>
void interpolate_row(const double* c0, const double* c1, double* out,
                     bool assign, int n);

}  // namespace pbmg::grid::pk
