// Cycle gallery: autotune and render the tuned V and full-multigrid cycle
// shapes for every accuracy level, like the paper's Figure 5, plus the
// call-stack view of Figure 4.  A quick way to *see* what the autotuner
// decided on this machine.
//
//   ./build/examples/cycle_gallery [--n 129] [--distribution biased]

#include <iostream>

#include "engine/engine.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "support/argparse.h"
#include "support/table.h"
#include "trace/cycle_trace.h"
#include "tune/accuracy.h"
#include "tune/executor.h"
#include "tune/trainer.h"

int main(int argc, char** argv) {
  using namespace pbmg;
  ArgParser parser("cycle_gallery", "render tuned multigrid cycle shapes");
  parser.add_int("n", 129, "grid side (2^k + 1)");
  parser.add_string("distribution", "unbiased",
                    "unbiased | biased | point-sources");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const int n = static_cast<int>(parser.get_int("n"));
  const auto dist = parse_distribution(parser.get_string("distribution"));
  Engine engine;
  auto& sched = engine.scheduler();
  auto& direct = engine.direct();

  tune::TrainerOptions options;
  options.max_level = level_of_size(n);
  options.distribution = dist;
  std::cout << "Autotuning for N=" << n << " on " << to_string(dist)
            << " data ..." << std::endl;
  tune::Trainer trainer(options, engine);
  const tune::TunedConfig config = trainer.train();

  Rng rng(99);
  auto instance = tune::make_training_instance(n, dist, rng, sched);
  // The tracing executors bind the Poisson operator's ladders: the
  // averaged one, and the Galerkin one for tables with RAP cells.
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  const grid::StencilHierarchy rap(grid::StencilOp::poisson(n),
                                   grid::Coarsening::kRap, sched);

  for (int i = 0; i < config.accuracy_count(); ++i) {
    const std::string acc = format_accuracy(
        config.accuracies()[static_cast<std::size_t>(i)]);
    std::cout << "\n==================== accuracy " << acc
              << " ====================\n";
    std::cout << "call stack:\n"
              << tune::render_call_stack(config, options.max_level, i);
    {
      trace::CycleTracer tracer;
      const tune::TunedExecutor executor(config, sched, direct,
                                         engine.scratch(), engine.relax(),
                                         ops, &rap, &tracer);
      Grid2D x(n, 0.0);
      x.copy_from(instance.problem.x0);
      executor.run_v(x, instance.problem.b, i);
      std::cout << "tuned V cycle  [" << trace::summarize(tracer.events())
                << "], achieved "
                << format_double(tune::accuracy_of(instance, x, sched), 3)
                << ":\n"
                << trace::render_cycle(tracer.events());
    }
    {
      trace::CycleTracer tracer;
      const tune::TunedExecutor executor(config, sched, direct,
                                         engine.scratch(), engine.relax(),
                                         ops, &rap, &tracer);
      Grid2D x(n, 0.0);
      x.copy_from(instance.problem.x0);
      executor.run_fmg(x, instance.problem.b, i);
      std::cout << "tuned full-MG cycle  ["
                << trace::summarize(tracer.events()) << "], achieved "
                << format_double(tune::accuracy_of(instance, x, sched), 3)
                << ":\n"
                << trace::render_cycle(tracer.events());
    }
  }
  return 0;
}
