#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "grid/grid2d.h"

/// \file stencil_op.h
/// Variable-coefficient elliptic operators: 5-point flux stencils and the
/// 9-point (corner-coupled) generalisation.
///
/// A StencilOp describes the discrete operator
///
///     (A u)(i,j) = −∇·(M(x,y) ∇u)(i,j) + c·u(i,j)
///
/// on an n×n grid with Dirichlet boundaries.  For a diagonal diffusion
/// tensor M = diag(ax, ay) the standard flux form suffices: each interior
/// cell couples to its four edge neighbours through a per-edge coefficient,
///
///     (A u)(i,j) = [ aW·(u−uW) + aE·(u−uE) + aN·(u−uN) + aS·(u−uS) ] / h²
///                  + c·u ,
///
/// where aW = ax(i,j−1), aE = ax(i,j), aN = ay(i−1,j), aS = ay(i,j) are
/// the diffusion coefficients sampled at edge midpoints.  The operator is
/// symmetric by construction (every edge coefficient is shared by its two
/// endpoints) and positive definite whenever all edge coefficients are
/// positive and c >= 0.
///
/// A full tensor (mixed derivative −2·a12·u_xy, i.e. *rotated* anisotropy)
/// is not 5-point-representable: the cross term discretises onto the four
/// corner neighbours.  The 9-point extension adds two diagonal coupling
/// grids and an explicit centre coefficient:
///
///     (A u)(i,j) = [ cC·u − Σ_nb c_nb·u_nb ] / h² + c·u
///
/// over all eight neighbours, with the couplings shared per node pair so
/// symmetry again holds by construction.  The centre is stored explicitly
/// because Galerkin coarse operators (below) do not have zero row sums
/// near the boundary.  Corner couplings may legitimately be negative (the
/// mixed term makes one diagonal negative); positive definiteness holds
/// whenever the underlying tensor M is SPD.
///
/// The constant-coefficient Poisson operator (M ≡ I, c = 0) is the
/// zero-overhead fast path: `StencilOp::poisson(n)` stores no coefficient
/// grids, and every kernel that takes a StencilOp dispatches it to the
/// original specialised Poisson kernel, bit-for-bit identical to calling
/// that kernel directly.  Likewise a 5-point operator (no corner grids)
/// dispatches to the pre-9-point kernels bit for bit.
///
/// Coarse-grid operators come in two flavours — the `Coarsening` choice
/// dimension the autotuner races (tune/trainer.h):
///
///  - `Coarsening::kAverage` (`restricted()`): the historical heuristic —
///    the coarse edge coefficient is the harmonic (series) combination of
///    the two in-line fine edges, averaged with the two adjacent parallel
///    fine paths with weights ½/¼/¼ (Alcouffe et al.).  Corner couplings
///    of a 9-point fine operator are *dropped* (a 5-point approximation);
///    the Poisson fast path restricts to itself with no arithmetic.
///  - `Coarsening::kRap` (`galerkin_coarse()`): the exact Galerkin triple
///    product A_c = R·A·P with full-weighting restriction and bilinear
///    interpolation — the classical robust-multigrid recipe (BoxMG/hypre
///    style).  The coarse operator is always 9-point (RAP of the 5-point
///    Poisson stencil is the standard 9-point coarse Poisson stencil with
///    edge couplings ½ and corner couplings ¼).
///
/// `StencilHierarchy` precomputes a whole ladder once per solve context,
/// in either mode.
///
/// Numerical kernels (apply/residual) live in grid_ops.h as free functions
/// like every other grid kernel; this header only defines the data types.

namespace pbmg::rt {
class Scheduler;
}  // namespace pbmg::rt

namespace pbmg::grid {

class PackedStencil;

/// How coarse-grid operators are formed — a tuned choice dimension (see
/// file comment).  Serialized in tuned tables as "avg" / "rap"; a missing
/// field reads as the legacy kAverage.
enum class Coarsening {
  kAverage,  ///< heuristic edge-coefficient averaging (5-point coarse ops)
  kRap,      ///< exact Galerkin R·A·P (9-point coarse ops)
};

/// Stable names used in tuned tables and cache keys: "avg", "rap".
std::string to_string(Coarsening mode);

/// Parses the names produced by to_string; throws InvalidArgument for
/// anything else.
Coarsening parse_coarsening(const std::string& name);

/// Which row kernels the sweeps run over a level's coefficient grids — a
/// tuned choice dimension like Coarsening.  kLegacy runs the scalar
/// loops; kPacked runs the SIMD rows of packed_rows.h, which read the
/// same n×n grids through per-row views (pk::view5 / pk::view9) plus a
/// 5-point operator's summed diagonal (grid::PackedStencil, see
/// packed_stencil.h).  Both produce bitwise identical results; only the
/// instructions differ, so the tuner picks per (machine × operator
/// family × size).  Serialized as "legacy" / "packed"; a missing field
/// reads as kLegacy.
enum class StencilLayout {
  kLegacy,  ///< scalar sweeps over the coefficient grids (the seed path)
  kPacked,  ///< SIMD rows over the same grids + a 5-point diagonal grid
};

/// Stable names used in tuned tables and cache keys: "legacy", "packed".
std::string to_string(StencilLayout layout);

/// Parses the names produced by to_string; throws InvalidArgument for
/// anything else.
StencilLayout parse_stencil_layout(const std::string& name);

/// The kernel-implementation choices a sweep runs under, carried alongside
/// the algorithmic tunables (solvers::RelaxTunables holds one, VCycleOptions
/// forwards it).  simd_width is the *requested* lane count in {1, 2, 4};
/// the dispatcher clamps it to what the running CPU supports — safe because
/// every width is bitwise identical, so clamping never changes results.
/// Width only matters under kPacked (legacy sweeps ignore it); the Poisson
/// residual and SOR rows and the restriction and interpolation every
/// operator shares always run at the widest supported width
/// (packed_simd_width_supported()), whatever the policy says.
struct KernelPolicy {
  StencilLayout layout = StencilLayout::kLegacy;
  int simd_width = 1;
};

/// Throws InvalidArgument unless layout is a valid enumerator and
/// simd_width ∈ {1, 2, 4}.  Shared by solvers::validate_relax_tunables and
/// the search deserializers.
void validate_kernel_policy(const KernelPolicy& policy);

/// A variable-coefficient 5- or 9-point operator (see file comment).
/// Value type: copies share the underlying coefficient grids.
class StencilOp {
 public:
  /// Empty operator (n = 0); assign before use.
  StencilOp() = default;

  /// The constant-coefficient Poisson operator on an n×n grid — the fast
  /// path.  Stores no coefficient grids.
  static StencilOp poisson(int n);

  /// Builds a 5-point operator from explicit edge-coefficient grids.  `ax`
  /// and `ay` must be n×n: ax(i,j) is the coefficient of the edge between
  /// nodes (i,j) and (i,j+1) (read for j in [0, n−2]); ay(i,j) is the
  /// coefficient of the edge between (i,j) and (i+1,j) (read for i in
  /// [0, n−2]).  Requires every stored edge coefficient finite and > 0
  /// and c >= 0; throws InvalidArgument otherwise, in every build.
  static StencilOp variable(Grid2D ax, Grid2D ay, double c);

  /// Builds a 9-point operator from explicit coupling grids.  In addition
  /// to the edge grids above: ase(i,j) couples nodes (i,j) and (i+1,j+1)
  /// (the "\" diagonal, read for i,j in [0, n−2]); asw(i,j) couples (i,j)
  /// and (i+1,j−1) (the "/" diagonal, read for i in [0, n−2], j in
  /// [1, n−1]); center(i,j) is the explicit centre coefficient at interior
  /// nodes (coupling units — the assembled diagonal is center/h² + c).
  /// Corner couplings may be negative; requires finite couplings, a
  /// finite center > 0 on the interior and c >= 0, and throws
  /// InvalidArgument otherwise, in every build.
  static StencilOp nine_point(Grid2D ax, Grid2D ay, Grid2D ase, Grid2D asw,
                              Grid2D center, double c);

  /// Samples a full symmetric diffusion tensor M = [[a11,a12],[a12,a22]]
  /// at the appropriate midpoints and discretises −∇·(M∇u) + c·u as a
  /// 9-point operator (x = column·h, y = row·h over the unit square;
  /// mixed term via the standard 4-corner cross-derivative stencil).  The
  /// centre is the row sum of the couplings, so constants are annihilated
  /// exactly.  Requires M SPD on [0,1]² (a11,a22 > 0, a12² < a11·a22).
  static StencilOp from_tensor(
      int n, const std::function<double(double, double)>& a11_fn,
      const std::function<double(double, double)>& a12_fn,
      const std::function<double(double, double)>& a22_fn, double c);

  /// Samples per-direction coefficient functions at edge midpoints
  /// (x = column·h, y = row·h over the unit square).  `ax_fn`/`ay_fn`
  /// must be positive on [0,1]².
  static StencilOp from_coefficients(
      int n, const std::function<double(double, double)>& ax_fn,
      const std::function<double(double, double)>& ay_fn, double c);

  /// Isotropic convenience: one coefficient function for both directions.
  static StencilOp from_coefficient(
      int n, const std::function<double(double, double)>& a_fn,
      double c = 0.0);

  /// Grid side the operator acts on.
  int n() const { return n_; }

  /// True for the constant-coefficient Poisson fast path.
  bool is_poisson() const { return coeff_ == nullptr; }

  /// Identity of the shared coefficient storage: two StencilOps have equal
  /// identity iff they are copies of one operator (Poisson fast-path ops
  /// all share the null identity — they have no coefficients to differ
  /// in).  Routing caches key on (identity(), n()); holding a StencilOp
  /// copy keeps the identity from being reused by a later allocation.
  const void* identity() const { return coeff_.get(); }

  /// True when the operator carries corner couplings (9-point kernels).
  bool is_nine_point() const { return corner_ != nullptr; }

  /// The constant reaction term c (>= 0).
  double c() const { return c_; }

  /// Edge coefficients (1.0 on the Poisson fast path).
  double ax(int i, int j) const {
    return coeff_ == nullptr ? 1.0 : coeff_->ax(i, j);
  }
  double ay(int i, int j) const {
    return coeff_ == nullptr ? 1.0 : coeff_->ay(i, j);
  }

  /// Diagonal couplings (0.0 unless 9-point): ase couples (i,j)↔(i+1,j+1),
  /// asw couples (i,j)↔(i+1,j−1).
  double ase(int i, int j) const {
    return corner_ == nullptr ? 0.0 : corner_->ase(i, j);
  }
  double asw(int i, int j) const {
    return corner_ == nullptr ? 0.0 : corner_->asw(i, j);
  }

  /// Centre coefficient in coupling units (no 1/h², no c): 4.0 on the
  /// Poisson fast path, the edge sum for 5-point operators, the stored
  /// grid for 9-point ones.
  double center(int i, int j) const {
    if (corner_ != nullptr) return corner_->center(i, j);
    return ((ax(i, j - 1) + ax(i, j)) + ay(i - 1, j)) + ay(i, j);
  }

  /// Coupling (coupling units) between interior node (i,j) and its
  /// neighbour at offset (si,sj) ∈ {−1,0,1}² \ {0} — the single source
  /// of truth for the edge/diagonal index convention, shared by Galerkin
  /// coarsening and the direct solver's boundary lifting.
  double coupling(int i, int j, int si, int sj) const {
    if (si == 0) return sj == 1 ? ax(i, j) : ax(i, j - 1);
    if (sj == 0) return si == 1 ? ay(i, j) : ay(i - 1, j);
    if (si == 1) return sj == 1 ? ase(i, j) : asw(i, j);
    return sj == -1 ? ase(i - 1, j - 1) : asw(i - 1, j + 1);
  }

  /// Raw coefficient grids; requires !is_poisson() (the fast path stores
  /// none).  Hot kernels use these to get row pointers.
  const Grid2D& ax_grid() const;
  const Grid2D& ay_grid() const;

  /// Raw 9-point grids; requires is_nine_point().
  const Grid2D& ase_grid() const;
  const Grid2D& asw_grid() const;
  const Grid2D& center_grid() const;

  /// Diagonal of the assembled matrix at interior cell (i,j):
  /// center(i,j)/h² + c.
  double diag(int i, int j) const;

  /// The next-coarser operator by coefficient averaging (see file
  /// comment).  Restriction of the Poisson fast path is again the Poisson
  /// fast path, with no arithmetic; a 9-point operator loses its corner
  /// couplings (5-point approximation).  Requires n() >= 5.
  StencilOp restricted() const;

  /// The next-coarser operator by the exact Galerkin triple product
  /// R·A·P (full-weighting R, bilinear P) — always a 9-point operator,
  /// including for the Poisson fast path.  Requires n() >= 5.
  StencilOp galerkin_coarse() const;

  /// The same product with its coarse rows run on `sched`: bitwise equal
  /// to galerkin_coarse() on every thread count, because each shared
  /// coupling is written once, from the node that the serial row-major
  /// loop writes it from last.
  StencilOp galerkin_coarse(rt::Scheduler& sched) const;

  /// Dispatch helper: restricted() or galerkin_coarse() by mode.
  StencilOp coarsened(Coarsening mode) const;

  /// What the packed rows read beside the coefficient grids: a 5-point
  /// operator's summed diagonal as one n×n grid, nothing for a 9-point
  /// one (see packed_stencil.h).  Built on first call and cached in the
  /// slot every copy of this operator shares — so a hierarchy packs each
  /// level at most once no matter how many sessions run it.  Thread-safe
  /// (std::call_once); requires !is_poisson() (the fast path dispatches
  /// to the legacy Poisson kernels before packing is ever consulted).
  const PackedStencil& packed() const;

  /// Heap bytes held by this operator's coefficient grids plus its packed
  /// diagonal if one has been built (0 for the Poisson fast path).  Safe
  /// to call concurrently with a first pack(); counts what is resident
  /// *now*, so callers that budget against it should measure after
  /// prewarming.
  std::size_t bytes() const;

 private:
  struct Coefficients {
    Grid2D ax;
    Grid2D ay;
  };
  struct CornerCoefficients {
    Grid2D ase;
    Grid2D asw;
    Grid2D center;
  };
  struct PackedSlot;  // once_flag + PackedStencil, defined in the .cpp

  int n_ = 0;
  double c_ = 0.0;
  std::shared_ptr<const Coefficients> coeff_;  ///< null ⇒ Poisson fast path
  std::shared_ptr<const CornerCoefficients> corner_;  ///< null ⇒ 5-point
  std::shared_ptr<PackedSlot> packed_slot_;  ///< null ⇒ Poisson fast path
};

/// Row-pointer view of a 9-point operator's coefficients around grid row
/// i, for the row-sweeping kernels (the legacy apply/residual, SOR and
/// x-line solves, and pk::view9, which the packed rows read).
/// It encodes the offset aliasing of the shared-coupling layout
/// — aNW = se_up[j−1], aNE = sw_up[j+1], aSW = sw_dn[j], aSE = se_dn[j] —
/// in one place, so the kernels cannot drift from the convention that
/// StencilOp::coupling() defines.  Requires is_nine_point() and an
/// interior row i.
struct NinePointRows {
  NinePointRows(const StencilOp& op, int i)
      : ax(op.ax_grid().row(i)),
        ay_up(op.ay_grid().row(i - 1)),
        ay_dn(op.ay_grid().row(i)),
        se_up(op.ase_grid().row(i - 1)),
        se_dn(op.ase_grid().row(i)),
        sw_up(op.asw_grid().row(i - 1)),
        sw_dn(op.asw_grid().row(i)),
        center(op.center_grid().row(i)) {}

  const double* ax;     ///< aW = ax[j−1], aE = ax[j]
  const double* ay_up;  ///< aN = ay_up[j]
  const double* ay_dn;  ///< aS = ay_dn[j]
  const double* se_up;  ///< aNW = se_up[j−1]
  const double* se_dn;  ///< aSE = se_dn[j]
  const double* sw_up;  ///< aNE = sw_up[j+1]
  const double* sw_dn;  ///< aSW = sw_dn[j]
  const double* center;

  /// Coupling-weighted sum of the six neighbours in rows i±1 — the terms
  /// a row-wise line solve folds into its right-hand side.
  double cross_row_sum(const double* up, const double* down, int j) const {
    return ay_up[j] * up[j] + ay_dn[j] * down[j] +
           se_up[j - 1] * up[j - 1] + sw_up[j + 1] * up[j + 1] +
           sw_dn[j] * down[j - 1] + se_dn[j] * down[j + 1];
  }

  /// Coupling-weighted sum of all eight neighbours.
  double neighbour_sum(const double* up, const double* mid,
                       const double* down, int j) const {
    return ax[j - 1] * mid[j - 1] + ax[j] * mid[j + 1] +
           cross_row_sum(up, down, j);
  }
};

/// The per-level operator ladder a multigrid solve runs against: ops at
/// recursion levels [1, top_level], level k acting on 2^k+1 grids.  Built
/// once by repeated coarsening (averaged or Galerkin, see Coarsening) and
/// carried next to the scratch grids by solve sessions, executors and
/// trainers.  Cheap to copy (levels share coefficient storage with the
/// ops they were coarsened from).
class StencilHierarchy {
 public:
  /// Empty hierarchy; assign before use.
  StencilHierarchy() = default;

  /// Coarsens `fine` down to level 1 (N = 3) with the given mode.
  explicit StencilHierarchy(StencilOp fine,
                            Coarsening mode = Coarsening::kAverage);

  /// Same ladder, with each Galerkin coarsening's rows run on `sched`
  /// (StencilOp::galerkin_coarse(sched)): bitwise the serial ladder.
  /// Averaged coarsening stays serial.
  StencilHierarchy(StencilOp fine, Coarsening mode, rt::Scheduler& sched);

  /// Fine-grid recursion level (0 for an empty hierarchy).
  int top_level() const { return static_cast<int>(ops_.size()) - 1; }

  /// Fine-grid side.
  int n() const;

  /// Coarsening mode the ladder was built with.
  Coarsening coarsening() const { return mode_; }

  /// True when every level is the Poisson fast path.
  bool is_poisson() const;

  /// Operator at recursion level `level` in [1, top_level].
  const StencilOp& at(int level) const;

  /// Packs every non-Poisson level now (idempotent, shared with every
  /// copy of the ladder; only 5-point levels store anything), so a
  /// kPacked solve never pays the packing cost inside a timed sweep.  Sessions and the profile-search
  /// setup call this ahead of racing candidates.
  void prewarm_packed() const;

  /// Sum of StencilOp::bytes() over the ladder — the coefficient-side
  /// footprint a session pays to keep this hierarchy resident.
  std::size_t bytes() const;

 private:
  StencilHierarchy(StencilOp fine, Coarsening mode, rt::Scheduler* sched);

  std::vector<StencilOp> ops_;  ///< ops_[k] at level k; [0] unused padding
  Coarsening mode_ = Coarsening::kAverage;
};

}  // namespace pbmg::grid
