// Steady-state heat conduction in a square plate (Laplace equation):
// the top edge is held hot, the bottom edge cold, the sides follow a
// linear ramp.  The interior temperature solves A·x = 0 with Dirichlet
// boundary data — the b ≡ 0 special case of the paper's benchmark problem.
//
// The example compares iterated SOR, the reference V-cycle and the tuned
// solver on the same plate and prints the centre-column temperature
// profile (which should be close to linear in y for this configuration).
//
//   ./build/examples/heat_plate [--n 129] [--hot 100] [--cold 0]

#include <cmath>
#include <iostream>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/argparse.h"
#include "support/table.h"
#include "support/timer.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

int main(int argc, char** argv) {
  using namespace pbmg;
  ArgParser parser("heat_plate", "steady-state heat conduction demo");
  parser.add_int("n", 129, "grid side (2^k + 1)");
  parser.add_double("hot", 100.0, "top-edge temperature");
  parser.add_double("cold", 0.0, "bottom-edge temperature");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const int n = static_cast<int>(parser.get_int("n"));
  const double hot = parser.get_double("hot");
  const double cold = parser.get_double("cold");
  Engine engine;
  auto& sched = engine.scheduler();
  auto& direct = engine.direct();

  // Plate: row 0 = cold edge (y = 0), row n-1 = hot edge; side edges ramp.
  PoissonProblem plate;
  plate.b = Grid2D(n, 0.0);
  plate.x0 = Grid2D(n, 0.0);
  for (int j = 0; j < n; ++j) {
    plate.x0(0, j) = cold;
    plate.x0(n - 1, j) = hot;
  }
  for (int i = 1; i < n - 1; ++i) {
    const double ramp = cold + (hot - cold) * i / (n - 1.0);
    plate.x0(i, 0) = ramp;
    plate.x0(i, n - 1) = ramp;
  }

  const Grid2D exact = fft::exact_solution(plate, sched);
  const double e0 = grid::norm2_diff_interior(plate.x0, exact, sched);
  const double target = 1e5;
  const auto accuracy = [&](const Grid2D& x) {
    return e0 / grid::norm2_diff_interior(x, exact, sched);
  };

  // Iterated SOR.
  Grid2D x_sor(n, 0.0);
  x_sor.copy_from(plate.x0);
  WallTimer sor_timer;
  const auto sor_out = solvers::solve_iterated_sor(
      grid::StencilOp::poisson(n), x_sor, plate.b, solvers::omega_opt(n),
      100000,
      [&](const Grid2D& state, int) { return accuracy(state) >= target; },
      sched);
  const double sor_seconds = sor_timer.elapsed();

  // Reference V cycles.
  const grid::StencilHierarchy poisson(grid::StencilOp::poisson(n));
  Grid2D x_ref(n, 0.0);
  x_ref.copy_from(plate.x0);
  WallTimer ref_timer;
  const auto ref_out = solvers::solve_reference_v(
      poisson, x_ref, plate.b, solvers::VCycleOptions{}, 100,
      [&](const Grid2D& state, int) { return accuracy(state) >= target; },
      sched, direct, engine.scratch());
  const double ref_seconds = ref_timer.elapsed();

  // Tuned solver (trained on the unbiased distribution; the plate is a
  // mild out-of-distribution input, which the accuracy check below makes
  // visible).
  tune::TrainerOptions options;
  options.max_level = level_of_size(n);
  options.train_fmg = false;
  tune::Trainer trainer(options, engine);
  std::cout << "Autotuning ..." << std::endl;
  const tune::TunedConfig config = trainer.train();
  const SolveSession session(engine, config, n);
  Grid2D x_tuned(n, 0.0);
  x_tuned.copy_from(plate.x0);
  const double tuned_seconds =
      session.solve_v(x_tuned, plate.b, config.accuracy_index(target)).seconds;

  std::cout << "\nCentre-column temperature profile (tuned solve):\n";
  for (int r = 0; r <= 8; ++r) {
    const int i = r * (n - 1) / 8;
    const double t = x_tuned(i, n / 2);
    std::cout << "  y=" << format_double(i / (n - 1.0), 2) << "  T="
              << format_double(t, 4) << "  ";
    const int bars = static_cast<int>(
        40.0 * (t - std::min(cold, hot)) / (std::abs(hot - cold) + 1e-300));
    std::cout << std::string(static_cast<std::size_t>(std::max(0, bars)), '#')
              << '\n';
  }
  std::cout << "\n                time        iterations   accuracy\n"
            << "  SOR(w_opt):   " << format_seconds(sor_seconds) << "   "
            << sor_out.iterations << "   " << format_double(accuracy(x_sor), 3)
            << "\n  reference V:  " << format_seconds(ref_seconds) << "   "
            << ref_out.iterations << "   " << format_double(accuracy(x_ref), 3)
            << "\n  tuned V:      " << format_seconds(tuned_seconds)
            << "   (fixed shape)   " << format_double(accuracy(x_tuned), 3)
            << "\n";
  return 0;
}
