#pragma once

/// \file packed_rows.h
/// Width-templated flat row kernels: the packed variable-coefficient
/// sweeps over a StencilOp's coefficient grids, the zebra line groups of
/// every operator (Poisson's included), and the constant-coefficient
/// Poisson residual and red-black SOR plus the full-weighting restriction
/// and bilinear interpolation that every operator shares.
///
/// Everything here works on raw `double*` arrays — no Grid2D, no
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

namespace pbmg::grid::pk {

/// The 5-point coefficients of one interior row i: pointers into the
/// operator's grids, offset so entry [j] is what column j's update reads
/// (aW = ax(i, j−1), aE = ax(i, j), aN = ay(i−1, j), aS = ay(i, j)).
/// Built per row by pk::view5 (packed_kernels.h); entries are read for j
/// in [1, n−2].
struct View5 {
  const double* aw;
  const double* ae;
  const double* an;
  const double* as;
  const double* diag;  ///< ((aW+aE)+aN)+aS, PackedStencil::diag()
};

/// The 9-point coefficients of one interior row, built by pk::view9 at
/// NinePointRows' offsets (aNE = asw(i−1, j+1), aSW = asw(i, j),
/// aSE = ase(i, j), ctr = center(i, j)), with one exception: aNW =
/// ase(i−1, j−1) is nw[j − 1], because offset like the others nw would
/// point before the ase grid at row 1.
struct View9 {
  const double* aw;
  const double* ae;
  const double* an;
  const double* as;
  const double* nw;  ///< ase row i − 1: aNW = nw[j − 1]
  const double* ne;
  const double* sw;
  const double* se;
  const double* ctr;
};

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
/// consecutive columns of rows i−1, i and i+1 and of the coefficients and
/// stores four blended columns of row i, writing the other colour's
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

/// The stencil a line pass solves: the constant-coefficient Poisson
/// operator, whose couplings are all 1 and whose centre is 4 (no
/// coefficient is read), or a 5- or 9-point operator's grids.
enum class LineStencil { kPoisson, kFive, kNine };

/// One group of up to W same-parity lines of a zebra line pass, for one
/// iterate of a K-iterate batch.  Lane l solves line first + 2l: grid row
/// first + 2l of x for x-lines, grid column first + 2l for y-lines
/// (`columns`).  A 5- or 9-point group reads the operator's grids through
/// `coeffs`, the view of interior row 1: pk::view9(op, 1), or for a
/// 5-point operator pk::view5(op, 1)'s arrays with its summed diagonal as
/// the centre (StencilOp::center's 5-point value) and null corners; a
/// Poisson group leaves it null.  Row i's entries sit (i − 1)·n doubles
/// further on in every array, so an x-line group's lanes are 2n apart and
/// a y-line group's 2.  Tail lanes past `lanes` duplicate the last active
/// line's loads and are never stored.  cp, dp, sub and inv are
/// W-interleaved scratch (entry [k·W + l]) of at least (n−1)·W doubles
/// each; sub and inv are read only when slots > 1.
struct LineGroup {
  View9 coeffs{};
  LineStencil stencil = LineStencil::kFive;
  bool columns = false;  ///< y-lines (else x-lines)
  int first = 0;
  int lanes = 0;
  double* x = nullptr;        ///< the iterate's n×n grid, solved in place
  const double* b = nullptr;  ///< its right-hand side
  int slot = 0;               ///< the iterate's index in the batch
  int slots = 0;              ///< K
  double* cp = nullptr;
  double* dp = nullptr;
  double* sub = nullptr;
  double* inv = nullptr;
  double h2 = 0.0;
  double ch2 = 0.0;
  int n = 0;
};

/// Thomas solve of one line group for one iterate, bitwise the legacy
/// line passes' solve_interior_line on every lane (for Poisson, over an
/// operator whose coefficient grids hold 1).  One iterate
/// (slots == 1) eliminates and substitutes in one walk of the bands.  A
/// batch factors the group once, at slot 0: cp as the one-pass walk
/// computes it, sub[k·W + l] = sub-diagonal(k) and inv[k·W + l] =
/// 1/pivot(k); every slot then replays only the rhs recurrence and the
/// back substitution against those factors.  The replay multiplies by the
/// exact inv values the one-pass walk computes, so every iterate of a
/// batch is bitwise identical to its solo solve.  Slot 0 must finish
/// before the group's other slots run.
template <int W>
void line_group(const LineGroup& g);

// ---------------------------------------------------------------------------
// Constant-coefficient Poisson rows and the grid transfers
// ---------------------------------------------------------------------------

/// Poisson residual/apply over one interior row: with av = (4·mid[j] −
/// up[j] − down[j] − mid[j−1] − mid[j+1])·inv_h2, out[j] = av
/// (rhs == nullptr) or rhs[j] − av, for j in [1, n−2].
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
