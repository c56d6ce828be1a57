#include "tune/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/relax.h"
#include "support/timer.h"
#include "tune/baseline.h"
#include "tune/executor.h"

namespace pbmg::tune {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Floor added to every pruning budget so that microsecond-scale timing
/// noise at small levels cannot reject viable candidates.
constexpr double kBudgetFloorSeconds = 1e-3;

/// A candidate is abandoned once it has spent more than kPruneFactor ×
/// (best known time to the top accuracy) summed over the training
/// instances; the direct solver is skipped once its extrapolated time
/// exceeds kPruneFactor × that best time.
constexpr double kPruneFactor = 2.0;

/// Iteration cap for the RECURSE-style candidates (V RECURSE_j bodies and
/// the FMG solve phases that recurse).
constexpr int kMaxRecurseIterations = 100;

/// Iteration cap for plain SOR candidates.
constexpr int kMaxSorIterations = 100000;

/// Largest grid side for which the direct solver is ever *attempted* as
/// a candidate (a memory and time guard: its O(N⁴) cost is extrapolated
/// and pruned before this bound is hit on sane inputs).
constexpr int kDirectMaxN = 513;

std::string accuracy_tag(double a) {
  std::ostringstream oss;
  oss << "10^" << static_cast<int>(std::lround(std::log10(a)));
  return oss.str();
}

}  // namespace

Trainer::Trainer(TrainerOptions options, Engine& engine)
    : options_(std::move(options)),
      engine_(engine),
      sched_(engine.scheduler()) {
  PBMG_CHECK(options_.max_level >= 2, "Trainer: max_level must be >= 2");
  PBMG_CHECK(options_.training_instances >= 1,
             "Trainer: need at least one training instance");
  PBMG_CHECK(!options_.accuracies.empty(), "Trainer: empty accuracy ladder");
  PBMG_CHECK(!options_.smoothers.empty(), "Trainer: empty smoother list");
  for (const solvers::RelaxKind kind : options_.smoothers) {
    // Jacobi exists for the ablation bench only; the executor's RECURSE
    // body dispatches point SOR or a line variant.
    PBMG_CHECK(kind == solvers::RelaxKind::kSor || solvers::is_line_relax(kind),
               "Trainer: smoother candidates must be point_rb or a line "
               "variant");
  }
  PBMG_CHECK(!options_.coarsenings.empty(), "Trainer: empty coarsening list");
  for (const grid::Coarsening mode : options_.coarsenings) {
    // A deserialized byte is not necessarily a valid enumerator.
    (void)grid::to_string(mode);
  }
}

void Trainer::log_line(const std::string& line) const {
  if (options_.log) options_.log(line);
}

Trainer::Measurement Trainer::measure_iterative(
    const std::vector<TrainingInstance>& set, const GridFn& setup,
    const GridFn& step, int max_iterations, double time_budget) {
  const int m = static_cast<int>(options_.accuracies.size());
  Measurement out;
  out.needed.assign(static_cast<std::size_t>(m), -1);
  out.accuracy.assign(static_cast<std::size_t>(m), kInf);

  double total_step_time = 0.0;
  std::int64_t total_steps = 0;
  double total_setup_time = 0.0;
  bool feasible = true;

  std::vector<std::vector<int>> cross(
      set.size(), std::vector<int>(static_cast<std::size_t>(m), -1));
  std::vector<std::vector<double>> cross_acc(
      set.size(), std::vector<double>(static_cast<std::size_t>(m), 0.0));

  for (std::size_t s = 0; s < set.size() && feasible; ++s) {
    const TrainingInstance& inst = set[s];
    Grid2D x(inst.problem.x0.n(), 0.0);
    x.copy_from(inst.problem.x0);

    if (setup) {
      const double t0 = now_seconds();
      setup(x, inst.problem.b);
      total_setup_time += now_seconds() - t0;
    }

    const auto note_crossings = [&](int iteration) {
      const double acc = accuracy_of(inst, x, sched_);
      for (int i = 0; i < m; ++i) {
        if (cross[s][static_cast<std::size_t>(i)] < 0 &&
            acc >= options_.accuracies[static_cast<std::size_t>(i)]) {
          cross[s][static_cast<std::size_t>(i)] = iteration;
          cross_acc[s][static_cast<std::size_t>(i)] = acc;
        }
      }
      return cross[s][static_cast<std::size_t>(m - 1)] >= 0;
    };

    bool done = note_crossings(0);  // a setup phase may already suffice
    for (int it = 1; it <= max_iterations && !done; ++it) {
      const double t0 = now_seconds();
      step(x, inst.problem.b);
      total_step_time += now_seconds() - t0;
      ++total_steps;
      done = note_crossings(it);
      if (total_setup_time + total_step_time > time_budget) break;
    }
  }

  for (int i = 0; i < m; ++i) {
    int worst = -1;
    double worst_acc = kInf;
    for (std::size_t s = 0; s < set.size(); ++s) {
      const int c = cross[s][static_cast<std::size_t>(i)];
      if (c < 0) {
        worst = -1;
        break;
      }
      worst = std::max(worst, c);
      worst_acc = std::min(worst_acc, cross_acc[s][static_cast<std::size_t>(i)]);
    }
    out.needed[static_cast<std::size_t>(i)] = worst;
    out.accuracy[static_cast<std::size_t>(i)] = worst < 0 ? 0.0 : worst_acc;
  }
  out.time_per_step =
      total_steps > 0 ? total_step_time / static_cast<double>(total_steps)
                      : 0.0;
  out.setup_time =
      set.empty() ? 0.0 : total_setup_time / static_cast<double>(set.size());
  return out;
}

double Trainer::measure_direct(const grid::StencilOp& op,
                               const std::vector<TrainingInstance>& set,
                               double& worst_accuracy) {
  double total = 0.0;
  worst_accuracy = kInf;
  for (const TrainingInstance& inst : set) {
    Grid2D x(inst.problem.x0.n(), 0.0);
    x.copy_from(inst.problem.x0);
    const double t0 = now_seconds();
    engine_.direct().solve(op, inst.problem.b, x);
    total += now_seconds() - t0;
    worst_accuracy = std::min(worst_accuracy, accuracy_of(inst, x, sched_));
  }
  return total / static_cast<double>(set.size());
}

double Trainer::predicted_direct_time(int level) const {
  auto it = direct_time_by_level_.find(level - 1);
  if (it == direct_time_by_level_.end()) return kInf;
  // Banded Cholesky is O(N⁴): one level up costs ~16×.
  return it->second * 16.0;
}

void Trainer::train_v_level(TunedConfig& config, int level,
                            const std::vector<TrainingInstance>& set,
                            const std::vector<int>& allowed_sub_accuracies,
                            bool allow_sor,
                            const std::vector<solvers::RelaxKind>& smoothers,
                            const std::vector<grid::Coarsening>& coarsenings,
                            const grid::StencilHierarchy& ops,
                            const grid::StencilHierarchy* ops_rap) {
  const int m = config.accuracy_count();
  const int n = size_of_level(level);
  const grid::StencilOp& fine_op = ops.at(level);
  const TunedExecutor executor(config, sched_, engine_.direct(),
                               engine_.scratch(), engine_.relax(), ops,
                               ops_rap);

  struct CandidateResult {
    VChoice choice;      // iterations filled per accuracy at selection time
    Measurement meas;
    double direct_time = kInf;  // for the direct candidate
    double direct_acc = 0.0;
    bool is_direct = false;
  };
  std::vector<CandidateResult> candidates;

  // Best known time to the *top* accuracy so far — the pruning yardstick.
  double best_top_time = kInf;
  const auto budget = [&] {
    return best_top_time == kInf
               ? kInf
               : kPruneFactor * best_top_time *
                         static_cast<double>(set.size()) +
                     kBudgetFloorSeconds;
  };

  // 1. RECURSE_j candidates, coarsening-major then smoother-major — the
  //    two tuned axes of the recursion body.  Both candidate lists put
  //    their robust member first (RAP ladders, zebra line smoothers) so
  //    that a candidate which converges on *every* operator family
  //    establishes the pruning budget before the fragile combinations
  //    burn their full iteration caps on operators where they stall
  //    (point SOR at strong axis anisotropy; averaged 5-point coarse
  //    operators at rotated anisotropy).  Within a (coarsening, smoother)
  //    pair, highest sub-accuracy first (fewest iterations, tightest
  //    budget).
  for (const grid::Coarsening coarsening : coarsenings) {
    for (const solvers::RelaxKind smoother : smoothers) {
      for (auto it = allowed_sub_accuracies.rbegin();
           it != allowed_sub_accuracies.rend(); ++it) {
        const int j = *it;
        CandidateResult cand;
        cand.choice.kind = VKind::kRecurse;
        cand.choice.sub_accuracy = j;
        cand.choice.smoother = smoother;
        cand.choice.coarsening = coarsening;
        cand.meas = measure_iterative(
            set, nullptr,
            [&](Grid2D& x, const Grid2D& b) {
              executor.recurse_body(x, b, j, smoother, coarsening);
            },
            kMaxRecurseIterations, budget());
        const int top_needed = cand.meas.needed.back();
        if (top_needed > 0) {
          best_top_time =
              std::min(best_top_time, cand.meas.time_per_step * top_needed);
        }
        candidates.push_back(std::move(cand));
      }
    }
  }

  // 2. Direct candidate, with O(N⁴) extrapolation pruning.
  if (n <= kDirectMaxN) {
    const double predicted = predicted_direct_time(level);
    if (predicted <= kPruneFactor * best_top_time ||
        predicted == kInf || best_top_time == kInf) {
      CandidateResult cand;
      cand.is_direct = true;
      cand.choice.kind = VKind::kDirect;
      cand.direct_time = measure_direct(fine_op, set, cand.direct_acc);
      direct_time_by_level_[level] = cand.direct_time;
      best_top_time = std::min(best_top_time, cand.direct_time);
      candidates.push_back(std::move(cand));
    } else {
      // Too slow to ever win here; remember the extrapolation so the next
      // level can keep pruning.
      direct_time_by_level_[level] = predicted;
    }
  }

  // 3. Iterated SOR(ω_opt) candidate (excluded from the restricted
  //    heuristic search spaces, which only combine Direct and RECURSE).
  if (allow_sor) {
    CandidateResult cand;
    cand.choice.kind = VKind::kIterSor;
    const double omega =
        solvers::scaled_omega_opt(n, engine_.relax().omega_scale);
    cand.meas = measure_iterative(
        set, nullptr,
        [&](Grid2D& x, const Grid2D& b) {
          solvers::sor_sweep(fine_op, x, b, omega, sched_,
                             engine_.relax().kernels);
        },
        kMaxSorIterations, budget());
    candidates.push_back(std::move(cand));
  }

  // Selection: per accuracy, the fastest feasible candidate.
  for (int i = 0; i < m; ++i) {
    VEntry best;
    best.expected_time = kInf;
    for (const CandidateResult& cand : candidates) {
      double time = kInf;
      double acc = 0.0;
      VChoice choice = cand.choice;
      if (cand.is_direct) {
        time = cand.direct_time;
        acc = cand.direct_acc;
      } else {
        const int needed = cand.meas.needed[static_cast<std::size_t>(i)];
        if (needed < 0) continue;
        // A V-type choice must do work to claim an accuracy level.
        choice.iterations = std::max(needed, 1);
        time = cand.meas.time_per_step * choice.iterations;
        acc = cand.meas.accuracy[static_cast<std::size_t>(i)];
      }
      if (time < best.expected_time) {
        best.choice = choice;
        best.expected_time = time;
        best.measured_accuracy = acc;
        best.trained = true;
      }
    }
    PBMG_CHECK(best.trained,
               "autotuner found no feasible MULTIGRID-V candidate at level " +
                   std::to_string(level) + " accuracy " +
                   accuracy_tag(config.accuracies()[static_cast<std::size_t>(i)]));
    config.v_entry(level, i) = best;
    std::ostringstream line;
    line << "[V  ] level " << level << " (N=" << n << ") acc "
         << accuracy_tag(config.accuracies()[static_cast<std::size_t>(i)])
         << " -> ";
    switch (best.choice.kind) {
      case VKind::kDirect: line << "DIRECT"; break;
      case VKind::kIterSor: line << "SOR x" << best.choice.iterations; break;
      case VKind::kRecurse:
        if (best.choice.sub_accuracy == kClassicalCoarse) {
          line << "RECURSE[classic-V] x" << best.choice.iterations;
        } else {
          line << "RECURSE["
               << accuracy_tag(config.accuracies()[static_cast<std::size_t>(
                      best.choice.sub_accuracy)])
               << "] x" << best.choice.iterations;
        }
        line << smoother_tag(best.choice.smoother)
             << coarsening_tag(best.choice.coarsening);
        break;
    }
    line << "  (" << best.expected_time * 1e3 << " ms)";
    log_line(line.str());
  }
}

void Trainer::train_fmg_level(TunedConfig& config, int level,
                              const std::vector<TrainingInstance>& set,
                              const grid::StencilHierarchy& ops,
                              const grid::StencilHierarchy* ops_rap) {
  const int m = config.accuracy_count();
  const int n = size_of_level(level);
  const grid::StencilOp& fine_op = ops.at(level);
  const TunedExecutor executor(config, sched_, engine_.direct(),
                               engine_.scratch(), engine_.relax(), ops,
                               ops_rap);

  struct CandidateResult {
    FmgChoice choice;
    Measurement meas;
    double direct_time = kInf;
    double direct_acc = 0.0;
    bool is_direct = false;
  };
  std::vector<CandidateResult> candidates;

  double best_top_time = kInf;
  const auto budget = [&] {
    return best_top_time == kInf
               ? kInf
               : kPruneFactor * best_top_time *
                         static_cast<double>(set.size()) +
                     kBudgetFloorSeconds;
  };

  // Direct candidate first.  The V pass at this level already produced a
  // time for the direct solver (measured, or extrapolated when it pruned);
  // reuse it rather than re-running an expensive factorization, but
  // re-measure cheap systems to keep the accuracy figure honest.
  if (n <= kDirectMaxN) {
    auto it = direct_time_by_level_.find(level);
    const double known = it == direct_time_by_level_.end()
                             ? predicted_direct_time(level)
                             : it->second;
    CandidateResult cand;
    cand.is_direct = true;
    cand.choice.kind = FmgKind::kDirect;
    if (known == kInf || known < 0.05) {
      cand.direct_time = measure_direct(fine_op, set, cand.direct_acc);
      direct_time_by_level_[level] = cand.direct_time;
    } else {
      cand.direct_time = known;
      cand.direct_acc = kInf;  // the direct solve is exact by construction
    }
    best_top_time = std::min(best_top_time, cand.direct_time);
    candidates.push_back(std::move(cand));
  }

  // The smoother and coarsening of an FMG solve phase's RECURSE_m bodies
  // are inherited from the V cell that tuned RECURSE at (level, m) — the
  // V pass runs first and already raced both axes on this exact operator
  // and level, so re-enumerating them here would multiply the FMG
  // candidate count for no new information.  Cells that chose direct/SOR
  // fall back to point SOR on the averaged ladder, the historical shape.
  const auto solve_choice_for = [&](int solve) {
    const VEntry& v = config.v_entry(level, solve);
    if (v.trained && v.choice.kind == VKind::kRecurse) {
      return std::pair{v.choice.smoother, v.choice.coarsening};
    }
    return std::pair{solvers::RelaxKind::kSor, grid::Coarsening::kAverage};
  };

  // ESTIMATE_j followed by RECURSE_m or SOR.  Estimate phases are shared
  // across the solve alternatives via the setup callback.
  for (int j = m - 1; j >= 0; --j) {
    const auto setup = [&executor, j](Grid2D& x, const Grid2D& b) {
      executor.estimate(x, b, j);
    };
    // RECURSE solves first (tight budgets), plain SOR last (solve == -1).
    for (int solve = m - 1; solve >= -1; --solve) {
      CandidateResult cand;
      GridFn step;
      int max_iterations = 0;
      if (solve == -1) {
        cand.choice.kind = FmgKind::kEstimateThenSor;
        cand.choice.estimate_accuracy = j;
        const double omega =
            solvers::scaled_omega_opt(n, engine_.relax().omega_scale);
        step = [this, omega, &fine_op](Grid2D& x, const Grid2D& b) {
          solvers::sor_sweep(fine_op, x, b, omega, sched_,
                             engine_.relax().kernels);
        };
        max_iterations = kMaxSorIterations;
      } else {
        cand.choice.kind = FmgKind::kEstimateThenRecurse;
        cand.choice.estimate_accuracy = j;
        cand.choice.solve_accuracy = solve;
        std::tie(cand.choice.smoother, cand.choice.coarsening) =
            solve_choice_for(solve);
        const solvers::RelaxKind smoother = cand.choice.smoother;
        const grid::Coarsening coarsening = cand.choice.coarsening;
        step = [&executor, solve, smoother,
                coarsening](Grid2D& x, const Grid2D& b) {
          executor.recurse_body(x, b, solve, smoother, coarsening);
        };
        max_iterations = kMaxRecurseIterations;
      }
      cand.meas =
          measure_iterative(set, setup, step, max_iterations, budget());
      const int top_needed = cand.meas.needed.back();
      if (top_needed >= 0) {
        best_top_time = std::min(
            best_top_time,
            cand.meas.setup_time + cand.meas.time_per_step * top_needed);
      }
      candidates.push_back(std::move(cand));
    }
  }

  for (int i = 0; i < m; ++i) {
    FmgEntry best;
    best.expected_time = kInf;
    for (const CandidateResult& cand : candidates) {
      double time = kInf;
      double acc = 0.0;
      FmgChoice choice = cand.choice;
      if (cand.is_direct) {
        time = cand.direct_time;
        acc = cand.direct_acc;
      } else {
        const int needed = cand.meas.needed[static_cast<std::size_t>(i)];
        if (needed < 0) continue;
        choice.iterations = needed;  // 0 is valid: the estimate sufficed
        time = cand.meas.setup_time + cand.meas.time_per_step * needed;
        acc = cand.meas.accuracy[static_cast<std::size_t>(i)];
      }
      if (time < best.expected_time) {
        best.choice = choice;
        best.expected_time = time;
        best.measured_accuracy = acc;
        best.trained = true;
      }
    }
    PBMG_CHECK(best.trained,
               "autotuner found no feasible FULL-MULTIGRID candidate at level " +
                   std::to_string(level));
    config.fmg_entry(level, i) = best;
    std::ostringstream line;
    line << "[FMG] level " << level << " (N=" << n << ") acc "
         << accuracy_tag(config.accuracies()[static_cast<std::size_t>(i)])
         << " -> ";
    switch (best.choice.kind) {
      case FmgKind::kDirect:
        line << "DIRECT";
        break;
      case FmgKind::kEstimateThenSor:
        line << "EST["
             << accuracy_tag(config.accuracies()[static_cast<std::size_t>(
                    best.choice.estimate_accuracy)])
             << "]+SOR x" << best.choice.iterations;
        break;
      case FmgKind::kEstimateThenRecurse:
        line << "EST["
             << accuracy_tag(config.accuracies()[static_cast<std::size_t>(
                    best.choice.estimate_accuracy)])
             << "]+RECURSE["
             << accuracy_tag(config.accuracies()[static_cast<std::size_t>(
                    best.choice.solve_accuracy)])
             << "] x" << best.choice.iterations
             << smoother_tag(best.choice.smoother)
             << coarsening_tag(best.choice.coarsening);
        break;
    }
    line << "  (" << best.expected_time * 1e3 << " ms)";
    log_line(line.str());
  }
}

TunedConfig Trainer::train() {
  TunedConfig config(options_.accuracies, options_.max_level);
  config.profile_name = sched_.profile().name;
  config.distribution = to_string(options_.distribution);
  config.op_family = to_string(options_.op_family);
  config.seed = options_.seed;
  config.strategy = "autotuned";
  direct_time_by_level_.clear();

  // Coarse-call candidates: every ladder accuracy plus the classical
  // single-body V-cycle (kClassicalCoarse), which escapes the ladder's
  // accuracy floor on slowly converging operators (see tune/table.h).
  std::vector<int> all_sub;
  all_sub.push_back(kClassicalCoarse);
  for (int i = 0; i < config.accuracy_count(); ++i) all_sub.push_back(i);

  const bool want_rap =
      std::find(options_.coarsenings.begin(), options_.coarsenings.end(),
                grid::Coarsening::kRap) != options_.coarsenings.end();
  Rng rng(options_.seed);
  for (int level = 2; level <= options_.max_level; ++level) {
    const int n = size_of_level(level);
    // Each level trains against its own operator hierarchy — the family
    // discretised at this size with restricted coarse coefficients, i.e.
    // exactly what a SolveSession bound to (family, n) will execute (a
    // Poisson hierarchy stores no grids).  The RAP ladder is built, on
    // the engine's workers, only when the coarsening axis is raced.  Both
    // ladders share the one fine operator.
    const grid::StencilHierarchy hier(make_operator(n, options_.op_family));
    grid::StencilHierarchy hier_rap;
    if (want_rap) {
      hier_rap = grid::StencilHierarchy(hier.at(level), grid::Coarsening::kRap,
                                        sched_);
    }
    // Pack both ladders up front on packed engines, as PreparedOperator
    // does at bind: otherwise the first candidate at each level — the
    // robust one that sets the pruning budget — pays the pack in its
    // timed steps.
    if (engine_.relax().kernels.layout == grid::StencilLayout::kPacked) {
      hier.prewarm_packed();
      hier_rap.prewarm_packed();
    }
    const grid::StencilHierarchy* ops_rap = want_rap ? &hier_rap : nullptr;
    // The Poisson operator's instances come from the DST oracle.
    const auto set = make_training_set(
        hier.at(level), options_.distribution,
        rng.split(static_cast<std::uint64_t>(level)),
        options_.training_instances, sched_);
    train_v_level(config, level, set, all_sub, /*allow_sor=*/true,
                  options_.smoothers, options_.coarsenings, hier, ops_rap);
    if (options_.train_fmg) {
      train_fmg_level(config, level, set, hier, ops_rap);
    }
  }
  return config;
}

SearchTrainResult search_then_train(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options) {
  SearchTrainResult result;
  result.searched = search::search_profile(search_options);
  // Train the DP under the searched parameters so its measurements (and
  // therefore its choices) reflect the runtime the config will execute
  // on: the searched candidate becomes a new Engine, not a global swap.
  Engine engine(result.searched.profile, result.searched.relax);
  Trainer trainer(options, engine);
  result.config = trainer.train();
  // Capture what "healthy" latency looks like on the very engine state
  // the tables were measured under — the reference a serving-time drift
  // watcher compares against (tune/baseline.h).
  result.baseline = measure_latency_baseline(engine, result.config);
  return result;
}

TunedConfig Trainer::train_heuristic(int fixed_sub_accuracy) {
  TunedConfig config(options_.accuracies, options_.max_level);
  PBMG_CHECK(fixed_sub_accuracy >= 0 &&
                 fixed_sub_accuracy < config.accuracy_count(),
             "train_heuristic: sub-accuracy index out of range");
  config.profile_name = sched_.profile().name;
  config.distribution = to_string(options_.distribution);
  config.op_family = to_string(options_.op_family);
  config.seed = options_.seed;
  config.strategy =
      "heuristic-" +
      accuracy_tag(
          options_.accuracies[static_cast<std::size_t>(fixed_sub_accuracy)]) +
      "/" + accuracy_tag(options_.accuracies.back());
  direct_time_by_level_.clear();

  const std::vector<int> only_fixed{fixed_sub_accuracy};
  Rng rng(options_.seed);
  for (int level = 2; level <= options_.max_level; ++level) {
    const grid::StencilHierarchy hier(
        make_operator(size_of_level(level), options_.op_family));
    const auto set = make_training_set(
        hier.at(level), options_.distribution,
        rng.split(static_cast<std::uint64_t>(level)),
        options_.training_instances, sched_);
    // The Figure-7 heuristics reproduce the paper's restricted space
    // exactly: Direct and point-SOR RECURSE only, no line smoothers, the
    // historical averaged coarse ladder.
    train_v_level(config, level, set, only_fixed, /*allow_sor=*/false,
                  {solvers::RelaxKind::kSor}, {grid::Coarsening::kAverage},
                  hier, nullptr);
  }
  return config;
}

}  // namespace pbmg::tune
