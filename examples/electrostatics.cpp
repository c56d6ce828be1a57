// Electrostatics: potential of point charges in a grounded box.
//
//   ∇²φ = −ρ/ε   (here scaled to A·x = b with point sources in b)
//
// This is the paper's "point sources/sinks" input class (§4).  The example
// places a dipole plus a few random charges in a grounded (zero-boundary)
// domain, solves with the reference full-multigrid algorithm and with a
// tuned solver, renders the potential as an ASCII contour map, and checks
// both against the spectral oracle.
//
//   ./build/examples/electrostatics [--n 257]

#include <cmath>
#include <iostream>
#include <string>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "solvers/multigrid.h"
#include "support/argparse.h"
#include "support/table.h"
#include "support/timer.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

namespace {

using namespace pbmg;

/// Renders the interior of a grid as a coarse ASCII intensity map.
std::string ascii_field(const Grid2D& g, int rows = 24, int cols = 48) {
  const char* shades = " .:-=+*#%@";
  const int n = g.n();
  double lo = 0.0, hi = 0.0;
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      lo = std::min(lo, g(i, j));
      hi = std::max(hi, g(i, j));
    }
  }
  const double span = hi - lo > 0 ? hi - lo : 1.0;
  std::string out;
  for (int r = 0; r < rows; ++r) {
    const int i = 1 + r * (n - 2) / rows;
    for (int c = 0; c < cols; ++c) {
      const int j = 1 + c * (n - 2) / cols;
      const int shade =
          static_cast<int>(9.99 * (g(i, j) - lo) / span);
      out.push_back(shades[shade]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("electrostatics",
                   "potential of point charges in a grounded box");
  parser.add_int("n", 257, "grid side (2^k + 1)");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const int n = static_cast<int>(parser.get_int("n"));
  Engine engine;
  auto& sched = engine.scheduler();
  auto& direct = engine.direct();

  // Charge configuration: a strong dipole on the diagonal plus background
  // charges drawn from the paper's point-source distribution.
  Rng rng(7);
  PoissonProblem problem =
      make_problem(n, InputDistribution::kPointSources, rng);
  const double q = 4294967296.0;  // 2^32, the paper's source magnitude
  problem.b(n / 3, n / 3) += 3.0 * q;
  problem.b(2 * n / 3, 2 * n / 3) -= 3.0 * q;

  // Oracle (spectral) solution for verification.
  const Grid2D exact = fft::exact_solution(problem, sched);
  const double e0 =
      grid::norm2_diff_interior(problem.x0, exact, sched);

  // Reference full multigrid until accuracy 1e7.
  const grid::StencilHierarchy poisson(grid::StencilOp::poisson(n));
  Grid2D x_ref(n, 0.0);
  x_ref.copy_from(problem.x0);
  WallTimer ref_timer;
  const auto outcome = solvers::solve_reference_fmg(
      poisson, x_ref, problem.b, solvers::VCycleOptions{}, 100,
      [&](const Grid2D& state, int) {
        return e0 / grid::norm2_diff_interior(state, exact, sched) >= 1e7;
      },
      sched, direct, engine.scratch());
  const double ref_seconds = ref_timer.elapsed();

  // Tuned solver at the same accuracy.
  tune::TrainerOptions options;
  options.max_level = level_of_size(n);
  options.distribution = InputDistribution::kPointSources;
  std::cout << "Autotuning on the point-source distribution ..." << std::endl;
  tune::Trainer trainer(options, engine);
  const tune::TunedConfig config = trainer.train();
  const SolveSession session(engine, config, n);
  Grid2D x_tuned(n, 0.0);
  x_tuned.copy_from(problem.x0);
  const double tuned_seconds =
      session.solve_fmg(x_tuned, problem.b, config.accuracy_index(1e7))
          .seconds;

  std::cout << "\nPotential field (ASCII, @=high, ' '=low):\n"
            << ascii_field(x_tuned)
            << "\nreference FMG: " << format_seconds(ref_seconds) << " ("
            << outcome.iterations << " cycles), accuracy "
            << format_double(
                   e0 / grid::norm2_diff_interior(x_ref, exact, sched), 3)
            << "\ntuned FMG:     " << format_seconds(tuned_seconds)
            << ", accuracy "
            << format_double(
                   e0 / grid::norm2_diff_interior(x_tuned, exact, sched), 3)
            << "\n";
  return 0;
}
