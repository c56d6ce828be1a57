#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "grid/problem.h"
#include "obs/metrics.h"
#include "solvers/direct.h"
#include "solvers/multigrid.h"
#include "support/argparse.h"
#include "support/json.h"
#include "support/table.h"
#include "tune/accuracy.h"
#include "tune/config_cache.h"
#include "tune/executor.h"

/// \file harness.h
/// Shared infrastructure for the paper-reproduction benchmark binaries
/// (one binary per table/figure of the paper).
///
/// Responsibilities: benchmark-wide settings (sizes, trials, cache
/// directory), tuned-config acquisition through the disk cache, evaluation
/// instances with exact solutions, timed solve drivers for every algorithm
/// the paper compares (tuned V/FMG, reference V/FMG, iterated SOR, direct),
/// and table emission (stdout + CSV + machine-readable BENCH_*.json).
///
/// Every driver runs against an explicit pbmg::Engine: a figure that
/// compares machine profiles constructs one Engine per profile (a profile
/// under test is a new Engine, never a process-global swap).

namespace pbmg::bench {

/// Settings shared by all figure binaries.  Populated from command-line
/// flags with environment fallbacks (PBMG_MAX_N, PBMG_CACHE_DIR,
/// PBMG_TRIALS) so `for b in build/bench/*; do $b; done` runs at laptop
/// scale out of the box.
struct Settings {
  int max_level = 9;          ///< largest tuned/benchmarked level (N = 2^L+1)
  int trials = 1;             ///< timed repetitions per data point (min taken)
  std::uint64_t train_seed = 20091114;  ///< training-set seed
  std::uint64_t eval_seed = 555;        ///< held-out evaluation seed
  int training_instances = 2;
  std::string cache_dir;      ///< tuned-config cache directory
  std::string out_dir = ".";  ///< where CSV/JSON outputs are written
  bool verbose = false;       ///< print tuner progress lines
};

/// Parses standard flags (--max-n, --trials, --cache-dir, --out-dir,
/// --verbose) plus help.  Returns nullopt when --help was requested (the
/// help text has then been printed).
std::optional<Settings> parse_settings(int argc, const char* const* argv,
                                       const std::string& name,
                                       const std::string& description);

/// Builds an Engine for `profile` honouring the settings' cache dir.
EngineOptions engine_options(const Settings& settings,
                             const rt::MachineProfile& profile);

/// Builds TrainerOptions matching `settings` for the given distribution and
/// level ceiling.
tune::TrainerOptions trainer_options(const Settings& settings,
                                     InputDistribution dist, int max_level,
                                     bool train_fmg = true);

/// Fetches (training on miss) the autotuned config for `engine`'s profile.
tune::TunedConfig get_tuned_config(const Settings& settings, Engine& engine,
                                   InputDistribution dist, int max_level,
                                   bool train_fmg = true);

/// Fetches (training on miss) a Figure-7 heuristic config
/// ("Strategy 10^x/10^9" with x = accuracies[sub_index]).
tune::TunedConfig get_heuristic_config(const Settings& settings,
                                       Engine& engine, InputDistribution dist,
                                       int max_level, int sub_index);

/// Held-out evaluation instance (problem + oracle solution).
tune::TrainingInstance eval_instance(const Settings& settings, Engine& engine,
                                     int n, InputDistribution dist,
                                     std::uint64_t salt);

/// Times `solve` (which must leave its result in place) over
/// settings.trials runs and returns the minimum seconds.  `reset` restores
/// the initial state before each run and is excluded from the timing.
/// Every trial is also recorded into the figure-wide sample log that
/// emit_table summarizes into BENCH_*.json.
double time_min(const Settings& settings, const std::function<void()>& reset,
                const std::function<void()>& solve);

// ---------------------------------------------------------------------
// Timed solve drivers.  Each returns seconds to reach `target_accuracy`
// on the instance (or NaN when the algorithm cannot reach it within its
// iteration cap).  Iteration counts are determined in an untimed probe
// phase so oracle-based convergence checks never pollute the timings.
// ---------------------------------------------------------------------

/// Direct banded-Cholesky solve (factor + solve, the paper's DPBSV).
double run_direct(const Settings& settings, Engine& engine,
                  const tune::TrainingInstance& inst);

/// Iterated Red-Black SOR with ω_opt until the target accuracy.
double run_sor(const Settings& settings, Engine& engine,
               const tune::TrainingInstance& inst, double target_accuracy,
               int max_sweeps);

/// Iterated MULTIGRID-V-SIMPLE (the paper's "Multigrid" baseline, which is
/// also its reference V-cycle algorithm).
double run_reference_v(const Settings& settings, Engine& engine,
                       const tune::TrainingInstance& inst,
                       double target_accuracy, int max_cycles = 200);

/// Reference full multigrid: one FMG ramp then V-cycles until the target.
double run_reference_fmg(const Settings& settings, Engine& engine,
                         const tune::TrainingInstance& inst,
                         double target_accuracy, int max_cycles = 200);

/// Tuned MULTIGRID-V_i / FULL-MULTIGRID_i (fixed tuned shape).  Also
/// verifies the accuracy contract; returns NaN if the tuned run misses the
/// target by more than 10× (which would indicate a training failure).
double run_tuned_v(const Settings& settings, Engine& engine,
                   const tune::TunedConfig& config,
                   const tune::TrainingInstance& inst, int accuracy_index);
double run_tuned_fmg(const Settings& settings, Engine& engine,
                     const tune::TunedConfig& config,
                     const tune::TrainingInstance& inst, int accuracy_index);

/// Prints a titled table to stdout, writes `<name>.csv`, and writes
/// machine-readable `BENCH_<name>.json` (columns, rows, and median/p90 of
/// every timed trial recorded since the previous emission) to
/// settings.out_dir so the perf trajectory is trackable across PRs.
void emit_table(const Settings& settings, const std::string& name,
                const std::string& title, const TextTable& table);

/// Writes a custom machine-readable `BENCH_<name>.json` document (figures
/// with richer stats than a table, e.g. fig17's throughput scaling).
void emit_bench_json(const Settings& settings, const std::string& name,
                     const Json& doc);

/// Benchmark-wide metrics registry (obs/metrics.h).  Figures may record
/// their own counters/histograms here; every timed trial from time_min
/// lands in the `pbmg_bench_trial_seconds` histogram automatically, and
/// emit_table / emit_bench_json embed the registry snapshot under the
/// `metrics` key of every BENCH_*.json document.
obs::MetricsRegistry& metrics();

/// Registers `engine` so its scheduler/scratch statistics are published
/// into the bench registry (as `{engine="name"}`-labelled gauges) right
/// before every BENCH_*.json emission.  Re-tracking an existing name
/// rebinds it.  The engine must outlive subsequent emissions.
void track_engine(const std::string& name, Engine& engine);

/// Benchmark-wide progress line (stderr, so stdout stays machine-readable).
void progress(const std::string& line);

/// Levels [min_level, settings.max_level] as grid sides.
std::vector<int> bench_sizes(const Settings& settings, int min_level);

}  // namespace pbmg::bench
