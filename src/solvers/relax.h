#pragma once

#include <span>
#include <string>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file relax.h
/// Relaxation kernels: Red-Black Successive Over-Relaxation and weighted
/// Jacobi, and the two halves of a RECURSE body that run them beside the
/// grid transfers (recurse_head, recurse_tail).
///
/// The paper restricts its search space to Red-Black SOR (§2.3): the
/// iterative shortcut uses ω_opt(N) — the optimal SOR weight for the 2-D
/// Poisson problem with Dirichlet boundaries — while the relaxations inside
/// RECURSE use the fixed weight 1.15 chosen by the authors.  Weighted
/// Jacobi is the alternative the paper measured and rejected; it has one
/// body, the Poisson sweep the smoother ablation runs.
///
/// A SOR sweep and each half of a point-SOR RECURSE body run as one row
/// wavefront (grid/wavefront.h) on every operator, under either kernel
/// layout (the legacy layout runs the rows at one lane, the packed one
/// at simd_width lanes): each block of rows runs every
/// stage of the pass (two SOR stages, then the residual and restriction;
/// or the interpolation, then two SOR stages), each stage a fixed number
/// of rows behind the one before, so each row — and each coefficient
/// row — is read from cache by every stage that needs it.  A
/// 5-point operator's SOR stages are red and black; a 9-point operator's
/// are the even rows' two colours and the odd rows' two.  A block's
/// stages stop short of its neighbours' rows; the rows they leave at each
/// block edge (a triangle) run in a second parallel region, once every
/// block is done.  Every cell sees the same inputs in the same order
/// through the same pk:: row kernels as in separate passes, so the
/// results are bitwise those of the separate colour passes, residual
/// restriction and interpolation under any thread count (the tests keep
/// those passes as scalar loops, their oracle).  Line smoothers keep
/// their separate passes.

namespace pbmg::obs {
class PhaseProfile;
}

namespace pbmg::solvers {

/// Smoother selection — the relaxation axis of the choice space.  The
/// paper restricted its search to point Red-Black SOR after finding it
/// beat weighted Jacobi on its (isotropic Poisson) training data (§2.3);
/// Jacobi is kept, for the Poisson operator only, for the ablation that
/// verifies that finding (bench/ablation_smoother).  The line variants
/// (solvers/line_relax.h)
/// solve whole rows/columns exactly via batched Thomas tridiagonal
/// solves in zebra (odd/even line red-black) ordering; they are what
/// makes strong axis anisotropy (the `aniso1000` / `aniso-rot` operator
/// families) tractable, and — following the paper's central claim — the
/// choice between them is *tuned*, not hard-coded: the DP trainer
/// enumerates the smoother per level (tune/trainer.h) and the runtime-
/// parameter search races it as a categorical axis
/// (search/profile_search.h).
enum class RelaxKind {
  kSor,          ///< point red-black SOR ("point_rb", the paper's choice)
  kJacobi,       ///< weighted Jacobi (Poisson ablation only)
  kLineX,        ///< x-line zebra relaxation (tridiagonal solves per row)
  kLineY,        ///< y-line zebra relaxation (tridiagonal solves per column)
  kLineZebraAlt, ///< alternating zebra: one x-line + one y-line pass
};

/// Stable names used in tuned tables, cache keys and the search space:
/// "point_rb", "jacobi", "line_x", "line_y", "line_zebra_alt".
std::string to_string(RelaxKind kind);

/// Parses the names produced by to_string; throws InvalidArgument for
/// anything else.
RelaxKind parse_relax_kind(const std::string& name);

/// True for the three line-relaxation variants (which need ScratchPool
/// workspaces in addition to the scheduler).
constexpr bool is_line_relax(RelaxKind kind) {
  return kind == RelaxKind::kLineX || kind == RelaxKind::kLineY ||
         kind == RelaxKind::kLineZebraAlt;
}

/// All smoothers the autotuner may choose between (Jacobi is excluded:
/// the paper measured and rejected it, and keeping it out preserves the
/// historical candidate budget; a tuned table that names it fails to
/// load with ConfigError).  Order matters for the trainer: the
/// zebra variants come first so a robust candidate establishes the
/// pruning budget before point relaxation — which stalls on strongly
/// anisotropic operators — burns its full iteration cap.
inline constexpr RelaxKind kTunableSmoothers[] = {
    RelaxKind::kLineZebraAlt, RelaxKind::kLineX, RelaxKind::kLineY,
    RelaxKind::kSor};

/// Optimal SOR relaxation parameter for the 2-D discrete Poisson problem
/// with Dirichlet boundaries on an n×n grid:  ω = 2 / (1 + sin(π·h)),
/// h = 1/(n−1)   [Demmel, Applied Numerical Linear Algebra].
double omega_opt(int n);

/// SOR weight used inside RECURSE by the paper (§2.3).
inline constexpr double kRecurseOmega = 1.15;

/// Damping factor commonly used for weighted Jacobi smoothing.
inline constexpr double kJacobiOmega = 2.0 / 3.0;

/// Relaxation weights exposed to the runtime-parameter search
/// (src/search/): the paper fixes RECURSE's ω at 1.15 and the iterative
/// shortcut at ω_opt(N), but both are machine- and workload-sensitive, so
/// the population tuner searches them.  Searched values travel with the
/// pbmg::Engine that owns the solve: executors and trainers capture a
/// RelaxTunables by value at construction (no mid-solve global reads),
/// so concurrent engines can run different weights.  A default-constructed
/// RelaxTunables holds the paper's values; the reference algorithms keep
/// the paper's constants.  The smoother itself is not a setting here:
/// tuned executors run the per-cell smoother the DP recorded.
struct RelaxTunables {
  double recurse_omega = kRecurseOmega;  ///< ω of RECURSE's pre/post sweeps
  double omega_scale = 1.0;              ///< multiplier applied to ω_opt(N)
  /// Searched kernel implementation policy (the "layout" / "simd_width"
  /// axes of make_profile_space): the lane count of the one set of rows
  /// over the coefficient grids, one under the legacy layout and
  /// simd_width under the packed one (grid::row_width).  Bitwise
  /// result-invariant — this axis trades instructions only — so the
  /// tuner is free to race it like any other runtime parameter.
  grid::KernelPolicy kernels;
};

/// Throws InvalidArgument unless 0 < recurse_omega < 2 and
/// 0.1 <= omega_scale <= 1.5 (SOR diverges outside (0, 2)).  Shared by
/// Engine construction, the tuned executors and the search subsystem's
/// deserializers so they can never drift apart.
void validate_relax_tunables(const RelaxTunables& tunables);

/// ω_opt(n) × scale, clamped into SOR's stability interval.  The search
/// objective and the tuned executors both use this, so candidates are
/// measured under exactly the ω the tuned executor later runs with.
double scaled_omega_opt(int n, double scale);

/// One full red-black SOR sweep (red half-sweep then black half-sweep) on
/// the Poisson system A·x = b.  Cells of one colour depend only on the
/// other colour, so the black half-sweep of a row may run as soon as the
/// red one has passed the rows beside it: the sweep is one two-stage row
/// wavefront (see the file comment).  The boundary ring of x is read, not
/// written.
void sor_sweep(Grid2D& x, const Grid2D& b, double omega,
               rt::Scheduler& sched);

/// One weighted-Jacobi sweep on the Poisson operator, the only one Jacobi
/// runs on (the smoother ablation's; no tuned plan can select it).
/// `scratch` must match x's size; on return x holds the new iterate
/// (contents are swapped, scratch holds the old).
void jacobi_sweep(Grid2D& x, const Grid2D& b, double omega, Grid2D& scratch,
                  rt::Scheduler& sched);

/// Red-black SOR sweep for a variable-coefficient operator: each update
/// divides by the cell's true diagonal (aW+aE+aN+aS)/h² + c instead of the
/// Poisson 4/h² (four-colour on a 9-point operator, whose corner
/// neighbours share the red-black colour).  The Poisson fast path runs
/// sor_sweep above's rows, bit-for-bit.  Every operator runs the same
/// wavefront over the pk:: rows at grid::row_width(kernels) lanes, and
/// every width gives the same bits.  Forwards a one-element span to
/// sor_sweep_multi, which holds the only body.  Requires x.n() == op.n().
void sor_sweep(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
               double omega, rt::Scheduler& sched,
               const grid::KernelPolicy& kernels = {});

/// Red-black SOR over K iterates: one sweep of each xs[k] against bs[k]
/// under one operator, the K sweeps fused per stage (or colour) × row so
/// each coefficient row is loaded once and reused across right-hand-sides
/// — the bandwidth amortization batched serving buys.  The K iterates
/// never couple, and each k's cells see the one-iterate inputs, so every
/// slot is bitwise identical to its own sor_sweep call under any thread
/// count; K = 1 is that call.  One wavefront for every operator.
/// Requires equal span sizes and all grids matching op.n().
void sor_sweep_multi(const grid::StencilOp& op, std::span<Grid2D* const> xs,
                     std::span<const Grid2D* const> bs, double omega,
                     rt::Scheduler& sched,
                     const grid::KernelPolicy& kernels = {});

/// First half of one RECURSE body over K iterates of one operator: one
/// sweep of `smoother` on each xs[k] against bs[k] (point red-black SOR
/// at `omega` unless it is a line smoother), then rcs[k] = full weighting
/// of (bs[k] − A·xs[k]) with a zero ring, and es[k] = 0 everywhere, ring
/// included: the coarse correction's zero guess.  With point SOR this is
/// one three-stage row wavefront (two SOR stages, then residual rows
/// restricted as they complete) timed once under obs::Phase::kRelax; a
/// line smoother runs line_relax_sweep_multi (timed kLineSolve) and then
/// restrict_residual_multi (timed kRestrict), as two passes.
/// Either way every slot is bitwise the sweep followed by residual_op
/// and restrict_full_weighting.  `profile` may be null; the level timed
/// is op.n()'s.  Requires equal span sizes, every fine grid matching
/// op.n(), and every coarse grid of side coarse_size(op.n()).
void recurse_head(const grid::StencilOp& op, std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, RelaxKind smoother,
                  double omega, std::span<Grid2D* const> rcs,
                  std::span<Grid2D* const> es, rt::Scheduler& sched,
                  grid::ScratchPool& pool, const grid::KernelPolicy& kernels,
                  obs::PhaseProfile* profile);

/// Second half of one RECURSE body: xs[k] += P·es[k] (bilinear
/// interpolation of the coarse correction), then one sweep of `smoother`
/// as in recurse_head.  Where recurse_head fuses, this is one
/// three-stage row wavefront (interpolation, then two SOR stages) timed
/// once under obs::Phase::kRelax; everything else runs
/// interpolate_add_multi, one region for the batch (timed kInterpolate),
/// and then the sweep.  Every slot is bitwise interpolate_add followed by
/// the sweep.  Same requirements as recurse_head.
void recurse_tail(const grid::StencilOp& op,
                  std::span<const Grid2D* const> es,
                  std::span<Grid2D* const> xs,
                  std::span<const Grid2D* const> bs, RelaxKind smoother,
                  double omega, rt::Scheduler& sched, grid::ScratchPool& pool,
                  const grid::KernelPolicy& kernels,
                  obs::PhaseProfile* profile);

}  // namespace pbmg::solvers
