#pragma once

#include <string>

#include "grid/scratch.h"
#include "runtime/machine_profile.h"
#include "runtime/scheduler.h"
#include "solvers/direct.h"
#include "solvers/relax.h"
#include "tune/table.h"

/// \file engine.h
/// Explicit ownership root for everything a tuned solve needs.
///
/// The paper's autotuned binaries are single-shot: one process, one
/// machine profile, one solve — which the seed code mirrored with
/// process-wide singletons (a global scheduler and a global scratch
/// pool).  A production service must run many tuned solves concurrently,
/// possibly under *different* profiles (each profile-search candidate is
/// its own runtime), so tuner and solver state lives in an explicit
/// long-lived context object instead:
///
///   Engine        owns one rt::Scheduler (built from a MachineProfile),
///                 one grid::ScratchPool, one solvers::DirectSolver, the
///                 relaxation tunables, and a tuned-config cache handle.
///   SolveSession  binds an Engine + TunedConfig + operator (or grid size
///                 n) and serves tuned solves with per-request SolveStats
///                 (engine/solve_session.h).
///   SolveService  multiplexes concurrent solve requests from many client
///                 threads onto one Engine (engine/solve_service.h).
///
/// Engines are independent: two engines with different profiles coexist
/// in one process, and constructing one never disturbs another.

namespace pbmg::tune {
struct TrainerOptions;  // tune/trainer.h (included by engine.cpp only)
}

namespace pbmg::obs {
class MetricsRegistry;  // obs/metrics.h (included by engine.cpp only)
}

namespace pbmg {

/// Construction parameters of an Engine.
struct EngineOptions {
  /// Machine profile the scheduler is built from.
  rt::MachineProfile profile;

  /// Relaxation weights tuned executors and trainers run with (defaults
  /// reproduce the paper; the profile search may supply searched values).
  solvers::RelaxTunables relax;

  /// Tuned-config cache directory for Engine::tuned_config; empty selects
  /// tune::default_cache_dir() ($PBMG_CACHE_DIR or ./pbmg_tuned_cache).
  std::string cache_dir;
};

/// Owns the runtime resources of one tuned-solver instance.
class Engine {
 public:
  /// Engine over the default machine profile.
  Engine() : Engine(EngineOptions{}) {}

  /// Engine over `profile` with paper-default relaxation weights.
  explicit Engine(const rt::MachineProfile& profile)
      : Engine(EngineOptions{profile, {}, {}}) {}

  /// Engine over searched runtime parameters (profile + relax weights).
  Engine(const rt::MachineProfile& profile,
         const solvers::RelaxTunables& relax)
      : Engine(EngineOptions{profile, relax, {}}) {}

  /// Fully specified construction.  Throws InvalidArgument for an invalid
  /// profile (non-positive threads) or relax weights outside SOR's
  /// stability interval.
  explicit Engine(EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The engine's work-stealing scheduler.
  rt::Scheduler& scheduler() { return scheduler_; }

  /// Profile the scheduler was built from.
  const rt::MachineProfile& profile() const { return scheduler_.profile(); }

  /// The engine's scratch-grid pool (trim()/stats() for observability).
  grid::ScratchPool& scratch() { return scratch_; }

  /// The engine's direct solver (stateless: DPBSV semantics, factoring on
  /// every call).
  solvers::DirectSolver& direct() { return direct_; }

  /// Relaxation weights executors and trainers built on this engine use.
  const solvers::RelaxTunables& relax() const { return relax_; }

  /// Tuned-config cache directory (resolved, never empty).
  const std::string& cache_dir() const { return cache_dir_; }

  /// Loads (or trains and persists) the tuned config for this engine's
  /// profile via tune::load_or_train against this engine's resources.
  /// `heuristic_sub_accuracy` >= 0 trains the Figure-7 heuristic instead;
  /// `from_cache`, when non-null, reports whether a disk hit occurred.
  tune::TunedConfig tuned_config(const tune::TrainerOptions& options,
                                 int heuristic_sub_accuracy = -1,
                                 bool* from_cache = nullptr);

  /// Samples this engine's runtime health into two `registry` gauges:
  /// the work-steal count (pbmg_scheduler_steals) and the scratch pool's
  /// hit rate (pbmg_scratch_hit_rate).  Call before snapshotting the
  /// registry; safe to call concurrently with solves.
  void publish_metrics(obs::MetricsRegistry& registry);

 private:
  solvers::RelaxTunables relax_;
  std::string cache_dir_;
  rt::Scheduler scheduler_;
  grid::ScratchPool scratch_;
  solvers::DirectSolver direct_;
};

}  // namespace pbmg
