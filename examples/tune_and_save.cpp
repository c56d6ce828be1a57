// Tune-and-save workflow: reproduce the PetaBricks deployment model
// (§3.2.1) — autotune once, persist the configuration file, and have later
// runs load it instead of retraining.
//
//   ./build/examples/tune_and_save [--n 129] [--config my_solver.json]
//
// First run: trains and writes the config.  Subsequent runs: load the
// config, validate it against this build, solve immediately.

#include <filesystem>
#include <iostream>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/argparse.h"
#include "support/table.h"
#include "support/timer.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

int main(int argc, char** argv) {
  using namespace pbmg;
  ArgParser parser("tune_and_save", "train once, reuse the config file");
  parser.add_int("n", 129, "grid side (2^k + 1)");
  parser.add_string("config", "pbmg_solver_config.json",
                    "configuration file path");
  parser.add_flag("retrain", "ignore an existing config file");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const int n = static_cast<int>(parser.get_int("n"));
  const std::string path = parser.get_string("config");
  Engine engine;
  auto& sched = engine.scheduler();

  tune::TunedConfig config;
  bool loaded = false;
  if (!parser.get_flag("retrain") && std::filesystem::exists(path)) {
    try {
      config = tune::TunedConfig::load(path);
      if (config.max_level() >= level_of_size(n)) {
        loaded = true;
        std::cout << "Loaded tuned config from " << path << " (trained on '"
                  << config.profile_name << "', " << config.distribution
                  << " data, strategy " << config.strategy << ")\n";
      } else {
        std::cout << "Config in " << path
                  << " covers only levels up to " << config.max_level()
                  << "; retraining.\n";
      }
    } catch (const Error& e) {
      std::cout << "Could not load " << path << " (" << e.what()
                << "); retraining.\n";
    }
  }
  if (!loaded) {
    tune::TrainerOptions options;
    options.max_level = level_of_size(n);
    std::cout << "Training (this is the slow, once-per-machine step) ..."
              << std::endl;
    WallTimer timer;
    tune::Trainer trainer(options, engine);
    config = trainer.train();
    config.save(path);
    std::cout << "Trained in " << format_seconds(timer.elapsed())
              << " and saved to " << path << '\n';
  }

  // Solve a fresh instance at every accuracy level and report the
  // (time, achieved accuracy) frontier — the paper's optimal-set idea.
  Rng rng(1234);
  auto instance = tune::make_training_instance(
      n, parse_distribution(config.distribution), rng, sched);
  const SolveSession session(engine, config, n);
  std::cout << "\n  target     time         achieved accuracy\n";
  for (int i = 0; i < config.accuracy_count(); ++i) {
    Grid2D x(n, 0.0);
    x.copy_from(instance.problem.x0);
    const double seconds = session.solve_v(x, instance.problem.b, i).seconds;
    std::cout << "  "
              << format_accuracy(
                     config.accuracies()[static_cast<std::size_t>(i)])
              << "       " << format_seconds(seconds) << "     "
              << format_double(tune::accuracy_of(instance, x, sched), 3)
              << '\n';
  }
  return 0;
}
