#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "grid/problem.h"
#include "obs/drift.h"
#include "runtime/scheduler.h"
#include "search/profile_search.h"
#include "solvers/direct.h"
#include "tune/accuracy.h"
#include "tune/table.h"

/// \file trainer.h
/// The discrete dynamic-programming autotuner of paper §2.3–2.4.
///
/// Levels are tuned bottom-up.  At level k every candidate choice is run on
/// training instances drawn from the target input distribution; following
/// §4.1, the trainer "first computes the number of iterations needed for
/// the SOR and RECURSE_j choices before determining which is the fastest
/// option to attain accuracy p_i": one pass per candidate records the
/// iteration at which each accuracy threshold is crossed, then per-accuracy
/// expected times are compared and the fastest feasible candidate wins the
/// cell.  Candidates that fall hopelessly behind the best known time are
/// abandoned early (time-budget pruning), and the direct solver is skipped
/// outright once its extrapolated O(N⁴) cost cannot win.
///
/// The same machinery trains the restricted candidate sets of the paper's
/// Figure 7/8 heuristics ("Strategy 10^x/10^9": only Direct and
/// RECURSE_{10^x} may be used below the top level).

namespace pbmg::tune {

/// Tuning hyper-parameters.  Defaults mirror the paper where specified and
/// stay laptop-friendly elsewhere.
struct TrainerOptions {
  /// Discrete accuracy ladder p_1 < ... < p_m (paper: 10 … 10⁹).
  std::vector<double> accuracies = paper_accuracies();

  /// Highest recursion level to tune (grid side 2^max_level + 1).
  int max_level = 8;

  /// Training input distribution (paper §4).
  InputDistribution distribution = InputDistribution::kUnbiased;

  /// Operator family the tables are tuned for (grid/problem.h).  Every
  /// non-Poisson family trains against its own coefficient hierarchy:
  /// level k's candidates run on make_operator(2^k+1, op_family) with
  /// restricted coarse coefficients — exactly the hierarchy a SolveSession
  /// bound to that operator executes.  Part of the config-cache key.
  OperatorFamily op_family = OperatorFamily::kPoisson;

  /// The scenario these options tune (operator × distribution × size);
  /// the config cache keys on it.
  ProblemSpec problem_spec() const {
    return ProblemSpec{op_family, distribution, max_level};
  }

  /// RNG seed for the training set; same seed ⇒ same tuned tables on a
  /// given machine state.
  std::uint64_t seed = 20091114;  // SC'09 opening day

  /// Training instances per level.
  int training_instances = 2;

  /// Smoother candidates the DP enumerates for the RECURSE relaxations at
  /// every level — the relaxation axis of the choice space.  The default
  /// is solvers::kTunableSmoothers in its canonical order: the zebra line
  /// variants first, so a candidate that survives strong anisotropy
  /// establishes the pruning budget before point SOR burns its iteration
  /// cap on operators where it stalls.  Restrict to {RelaxKind::kSor} to
  /// reproduce the paper's point-only space (the fig19 baseline arm).
  /// Part of the config-cache key (order included: it affects pruning).
  std::vector<solvers::RelaxKind> smoothers{
      std::begin(solvers::kTunableSmoothers),
      std::end(solvers::kTunableSmoothers)};

  /// Coarse-operator ladders the DP enumerates for the RECURSE bodies —
  /// the coarsening axis of the choice space (grid/stencil_op.h): exact
  /// Galerkin R·A·P versus the heuristic averaged-coefficient ladder.
  /// RAP comes first for the same reason the zebra smoothers do: it is
  /// the robust candidate on operators (rotated anisotropy) where the
  /// 5-point averaged coarse operators misrepresent the dominant
  /// coupling, so it establishes the pruning budget.  Restrict to
  /// {Coarsening::kAverage} to reproduce the pre-RAP space (the fig20
  /// baseline arm).  Part of the config-cache key, order included.
  std::vector<grid::Coarsening> coarsenings{grid::Coarsening::kRap,
                                            grid::Coarsening::kAverage};

  /// Train the FULL-MULTIGRID table as well (paper §2.4).  Part of the
  /// config-cache key: a V-only entry never serves an FMG request.
  bool train_fmg = true;

  /// Optional progress sink (one line per tuned cell).
  std::function<void(const std::string&)> log;
};

/// Bottom-up dynamic-programming tuner.
class Trainer {
 public:
  /// The engine decides the runtime the tuning is performed under: its
  /// scheduler carries the machine profile, its direct solver supplies
  /// the Direct candidates, its scratch pool serves the executors, and
  /// its relax tunables set the SOR weights being measured.  Tuning a
  /// different profile means constructing a different Engine.
  Trainer(TrainerOptions options, Engine& engine);

  /// Runs the full autotuning of §2.3 (and §2.4 when options.train_fmg):
  /// all accuracies at level k are tuned before level k+1.
  TunedConfig train();

  /// Trains a Figure-7 heuristic: below the top level only Direct and
  /// RECURSE with the fixed sub-accuracy index are allowed.  The returned
  /// config's V-table implements "Strategy 10^x/10⁹" where
  /// 10^x = accuracies[fixed_sub_accuracy].  FMG cells are not trained.
  TunedConfig train_heuristic(int fixed_sub_accuracy);

  const TrainerOptions& options() const { return options_; }

 private:
  /// Per-candidate single-pass measurement (see file comment).
  struct Measurement {
    std::vector<int> needed;        ///< per accuracy: iterations, -1 unreached
    std::vector<double> accuracy;   ///< worst accuracy at the crossing
    double time_per_step = 0.0;     ///< average seconds per iteration
    double setup_time = 0.0;        ///< average seconds of setup (estimate)
  };

  using GridFn = std::function<void(Grid2D&, const Grid2D&)>;

  Measurement measure_iterative(const std::vector<TrainingInstance>& set,
                                const GridFn& setup, const GridFn& step,
                                int max_iterations, double time_budget);

  /// Measures a direct solve of `op` on the training set; returns seconds
  /// and the worst achieved accuracy via out-param.
  double measure_direct(const grid::StencilOp& op,
                        const std::vector<TrainingInstance>& set,
                        double& worst_accuracy);

  /// `ops` is the averaged coefficient hierarchy of the level being
  /// trained (for every family, Poisson included: its ladder stores no
  /// grids) and `ops_rap` its Galerkin ladder (null when the coarsening
  /// candidate list excludes kRap).  The trainer builds both per level,
  /// because it races the coarsening axis; its executors only bind them.
  /// `smoothers` is the RECURSE relaxation candidate list and
  /// `coarsenings` the coarse-ladder candidate list (the full options_
  /// lists for autotuning; point-only/average-only for the paper's
  /// restricted heuristics).
  void train_v_level(TunedConfig& config, int level,
                     const std::vector<TrainingInstance>& set,
                     const std::vector<int>& allowed_sub_accuracies,
                     bool allow_sor,
                     const std::vector<solvers::RelaxKind>& smoothers,
                     const std::vector<grid::Coarsening>& coarsenings,
                     const grid::StencilHierarchy& ops,
                     const grid::StencilHierarchy* ops_rap);
  void train_fmg_level(TunedConfig& config, int level,
                       const std::vector<TrainingInstance>& set,
                       const grid::StencilHierarchy& ops,
                       const grid::StencilHierarchy* ops_rap);

  /// Extrapolated direct-solve time at `level` from lower-level
  /// measurements (O(N⁴) ⇒ ×16 per level); +inf when unknown.
  double predicted_direct_time(int level) const;

  void log_line(const std::string& line) const;

  TrainerOptions options_;
  Engine& engine_;
  rt::Scheduler& sched_;  // engine_.scheduler(), cached for brevity
  std::map<int, double> direct_time_by_level_;
};

/// Result of the combined search-then-train mode.
struct SearchTrainResult {
  search::SearchedProfile searched;  ///< runtime parameters the DP ran under
  TunedConfig config;                ///< DP tables trained on that profile
  /// Per-(n × accuracy) latency distribution of the tuned tables measured
  /// right after training on the searched-profile engine (tune/baseline.h).
  /// This is what "healthy" looks like: SolveService's drift watcher
  /// compares live latencies against it.
  obs::LatencyBaseline baseline;
};

/// The two-stage tuning mode: first a population search over runtime
/// parameters (machine profile tunables + relaxation weights, see
/// search/profile_search.h), then the paper's dynamic program trained on
/// an Engine built from the searched profile with the searched relaxation
/// weights.  The returned config must be *executed* under the same
/// parameters to reproduce its expected times — run it on an
/// Engine(result.searched.profile, result.searched.relax), or via
/// load_or_search_train's cache which stores both halves together.
/// Finishes by measuring the tables' latency baseline on that engine.
SearchTrainResult search_then_train(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options);

}  // namespace pbmg::tune
