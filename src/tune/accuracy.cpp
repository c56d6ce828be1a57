#include "tune/accuracy.h"

#include <limits>

#include "grid/grid_ops.h"

namespace pbmg::tune {

TrainingInstance make_training_instance(int n, InputDistribution dist,
                                        Rng& rng, rt::Scheduler& sched) {
  TrainingInstance inst;
  inst.problem = make_problem(n, dist, rng);
  inst.x_opt = Grid2D(n, 0.0);
  fft::FastPoissonSolver oracle(n);
  oracle.solve(inst.problem.b, inst.problem.x0, inst.x_opt, sched);
  inst.initial_error =
      grid::norm2_diff_interior(inst.problem.x0, inst.x_opt, sched);
  return inst;
}

TrainingInstance make_training_instance(const grid::StencilOp& op,
                                        InputDistribution dist, Rng& rng,
                                        rt::Scheduler& sched) {
  if (op.is_poisson()) {
    return make_training_instance(op.n(), dist, rng, sched);
  }
  constexpr double kTwo32 = 4294967296.0;  // value range of paper §4 inputs
  constexpr double kTwo31 = 2147483648.0;
  const int n = op.n();
  TrainingInstance inst;
  inst.x_opt = Grid2D(n, 0.0);
  switch (dist) {
    case InputDistribution::kUnbiased:
    case InputDistribution::kBiased: {
      const double shift = dist == InputDistribution::kBiased ? kTwo31 : 0.0;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          inst.x_opt(i, j) = rng.uniform(-kTwo32, kTwo32) + shift;
        }
      }
      break;
    }
    case InputDistribution::kPointSources: {
      // Mirrors make_problem's sparse flavour: a handful of strong spikes
      // in an otherwise zero solution with a grounded boundary.
      const int sources = 5;
      for (int s = 0; s < sources; ++s) {
        const int i = 1 + static_cast<int>(rng.uniform_index(
                              static_cast<std::uint64_t>(n - 2)));
        const int j = 1 + static_cast<int>(rng.uniform_index(
                              static_cast<std::uint64_t>(n - 2)));
        inst.x_opt(i, j) += rng.uniform01() < 0.5 ? -kTwo32 : kTwo32;
      }
      break;
    }
  }
  inst.problem.b = Grid2D(n, 0.0);
  grid::apply_op(op, inst.x_opt, inst.problem.b, sched);
  inst.problem.x0 = Grid2D(n, 0.0);
  inst.problem.x0.copy_boundary_from(inst.x_opt);
  inst.initial_error =
      grid::norm2_diff_interior(inst.problem.x0, inst.x_opt, sched);
  return inst;
}

std::vector<TrainingInstance> make_training_set(const grid::StencilOp& op,
                                                InputDistribution dist,
                                                const Rng& base_rng, int count,
                                                rt::Scheduler& sched) {
  PBMG_CHECK(count >= 1, "make_training_set: count must be >= 1");
  std::vector<TrainingInstance> set;
  set.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Rng rng = base_rng.split(static_cast<std::uint64_t>(i) + 1);
    set.push_back(make_training_instance(op, dist, rng, sched));
  }
  return set;
}

double error_against(const TrainingInstance& inst, const Grid2D& x,
                     rt::Scheduler& sched) {
  return grid::norm2_diff_interior(x, inst.x_opt, sched);
}

double accuracy_of(const TrainingInstance& inst, const Grid2D& x,
                   rt::Scheduler& sched) {
  const double err = error_against(inst, x, sched);
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  return inst.initial_error / err;
}

}  // namespace pbmg::tune
