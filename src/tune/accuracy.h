#pragma once

#include <vector>

#include "fft/fast_poisson.h"
#include "grid/grid2d.h"
#include "grid/problem.h"
#include "runtime/scheduler.h"
#include "support/rng.h"

/// \file accuracy.h
/// The paper's accuracy metric (§2.2) and training instances.
///
/// An algorithm's *accuracy level* on an input is
///     acc = ||x_in − x_opt||₂ / ||x_out − x_opt||₂
/// — the factor by which it reduces the error against the optimal solution
/// (higher is better).  Measuring it requires x_opt, which we obtain to
/// machine precision from the DST-based fast Poisson solver.

namespace pbmg::tune {

/// One training (or evaluation) instance: a problem plus its exact discrete
/// solution and the error norm of the canonical zero-interior start.
struct TrainingInstance {
  PoissonProblem problem;
  Grid2D x_opt;
  double initial_error = 0.0;  ///< ||x0 − x_opt||₂ over the interior
};

/// Draws a Poisson instance of side n from `dist` and solves it exactly.
TrainingInstance make_training_instance(int n, InputDistribution dist,
                                        Rng& rng, rt::Scheduler& sched);

/// Instance for a variable-coefficient operator (stencil_op.h).  The
/// Poisson fast path delegates to the DST oracle above, bit-for-bit; for
/// any other operator the instance is manufactured: x_opt is drawn from
/// `dist` (interior and Dirichlet ring), b = A·x_opt is computed with the
/// *discrete* operator, and x0 carries x_opt's ring with a zero interior —
/// so x_opt is the exact discrete solution by construction, at O(n²) cost
/// for any operator.  Deterministic in (op, dist, rng state).
TrainingInstance make_training_instance(const grid::StencilOp& op,
                                        InputDistribution dist, Rng& rng,
                                        rt::Scheduler& sched);

/// Draws `count` instances of the operator from independent RNG
/// substreams (the trainer's per-level training sets; Poisson instances
/// come from the DST oracle, as above).
std::vector<TrainingInstance> make_training_set(const grid::StencilOp& op,
                                                InputDistribution dist,
                                                const Rng& base_rng, int count,
                                                rt::Scheduler& sched);

/// Error of an iterate against the instance's exact solution.
double error_against(const TrainingInstance& inst, const Grid2D& x,
                     rt::Scheduler& sched);

/// Accuracy level achieved by an iterate (paper §2.2); +inf when the error
/// reaches exactly zero.
double accuracy_of(const TrainingInstance& inst, const Grid2D& x,
                   rt::Scheduler& sched);

}  // namespace pbmg::tune
