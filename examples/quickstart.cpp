// Quickstart: autotune a variable-accuracy multigrid solver for the 2-D
// Poisson equation and solve a random instance with it.
//
// Build & run (from the repository root):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--n 129] [--accuracy 1e7]
//
// The example trains the paper's dynamic-programming autotuner bottom-up
// (a few seconds at the default size), then runs the tuned MULTIGRID-V
// algorithm and reports the achieved error-reduction ratio.

#include <iostream>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/argparse.h"
#include "support/table.h"
#include "support/timer.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

int main(int argc, char** argv) {
  using namespace pbmg;
  ArgParser parser("quickstart", "autotune and solve a Poisson problem");
  parser.add_int("n", 129, "grid side (2^k + 1)");
  parser.add_double("accuracy", 1e7, "target accuracy level (10^odd, <=1e9)");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const int n = static_cast<int>(parser.get_int("n"));
  const double target = parser.get_double("accuracy");

  // The Engine owns the runtime a tuned solver needs: scheduler (default
  // machine profile here), scratch pool, and direct solver.
  Engine engine;
  auto& sched = engine.scheduler();

  // 1. Autotune: build MULTIGRID-V_i for every accuracy level up to the
  //    requested grid size (the V table is enough for this example).
  tune::TrainerOptions options;
  options.max_level = level_of_size(n);
  options.train_fmg = false;
  std::cout << "Autotuning up to N=" << n << " ..." << std::endl;
  WallTimer train_timer;
  tune::Trainer trainer(options, engine);
  const tune::TunedConfig config = trainer.train();
  std::cout << "  trained in " << format_seconds(train_timer.elapsed())
            << "\n\nTuned plan for accuracy " << format_accuracy(target)
            << ":\n"
            << tune::render_call_stack(config, options.max_level,
                                       config.accuracy_index(target));

  // 2. Solve a fresh random instance with the tuned algorithm.  The
  //    session prepares everything the solve reads (operator ladders,
  //    scratch grids) once, for N = n.
  Rng rng(2026);
  auto instance = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, sched);
  const SolveSession session(engine, config, n);
  Grid2D x(n, 0.0);
  x.copy_from(instance.problem.x0);
  const double seconds =
      session.solve_v(x, instance.problem.b, config.accuracy_index(target))
          .seconds;

  // 3. Report: the tuned algorithm contracts the error by >= the target.
  const double achieved = tune::accuracy_of(instance, x, sched);
  std::cout << "\nSolved N=" << n << " in " << format_seconds(seconds)
            << "; achieved accuracy " << format_double(achieved, 3)
            << " (target " << format_accuracy(target) << ")\n";
  return achieved >= 0.1 * target ? 0 : 1;
}
