#pragma once

#include <cstdint>
#include <functional>

#include "grid/problem.h"
#include "runtime/machine_profile.h"
#include "search/population.h"
#include "solvers/relax.h"

/// \file profile_search.h
/// The concrete runtime-parameter search: machine profile + relaxation
/// weights.
///
/// The DP trainer (tune/trainer.h) takes the machine profile as a fixed
/// input.  This module closes the loop the way PetaBricks' sgatuner does:
/// expose the profile's tunables (rt::profile_tunables) and the relaxation
/// weights (solvers::RelaxTunables) as one ParamSpace, race candidates on
/// a representative multigrid workload, and hand back a SearchedProfile
/// the trainer and executors can run under.  Every candidate is evaluated
/// on its own pbmg::Engine (scheduler + scratch pool + relax weights built
/// from the decoded parameters), so the search never mutates process-wide
/// state and may coexist with concurrent serving engines.
/// tune::search_then_train composes the two tuners;
/// tune::load_or_search_train persists the result.

namespace pbmg::search {

/// Builds the searchable space over `base`: the profile's tunables
/// (threads, grain_rows, sequential_cutoff_cells) plus the relaxation
/// group — RECURSE ω and the ω_opt scale from solvers/relax, the
/// workload's smoother and coarsening, and the kernel layout and SIMD
/// width.  Defaults reproduce `base` exactly.  With
/// include_machine_tunables = false only the relaxation group is searched
/// (see ProfileSearchOptions::relax_only).
ParamSpace make_profile_space(const rt::MachineProfile& base,
                              bool include_machine_tunables = true);

/// A candidate decoded into concrete runtime parameters.  `profile` and
/// `relax` are what a SearchedProfile keeps; the two algorithmic axes
/// shape only the search's own workload, since tuned tables choose the
/// smoother and coarsening per cell.
struct RuntimeParams {
  rt::MachineProfile profile;
  solvers::RelaxTunables relax;
  /// Smoother of the candidate's workload (the "smoother" categorical
  /// axis): point red-black SOR or one of the zebra line variants.
  solvers::RelaxKind smoother = solvers::RelaxKind::kSor;
  /// Coarse-operator ladder of the candidate's V-cycle workload (the
  /// "coarsening" categorical axis): legacy averaged coefficients or
  /// exact Galerkin R·A·P (grid/stencil_op.h).
  grid::Coarsening coarsening = grid::Coarsening::kAverage;
};

/// Decodes a candidate of make_profile_space(base, ...).  Machine
/// tunables absent from the space keep their `base` values.
RuntimeParams decode_runtime_params(const ParamSpace& space,
                                    const Candidate& candidate,
                                    const rt::MachineProfile& base);

/// Hyper-parameters of the profile search.
struct ProfileSearchOptions {
  /// Profile the search starts from (and whose tunable ranges apply).
  rt::MachineProfile base;

  /// Workload grid level: candidates are raced on N = 2^level + 1 grids.
  int level = 6;

  /// Operator family the workload solves (grid/problem.h).  Runtime
  /// parameters are scenario-sensitive — e.g. the best RECURSE ω for the
  /// axis-anisotropic family sits far from the paper's Poisson-tuned
  /// 1.15 — so the search must race candidates on the operator the tuned
  /// tables will serve.  Part of the searched-config cache key.
  OperatorFamily op_family = OperatorFamily::kPoisson;

  /// Restricts the search space to the relaxation weights (RECURSE ω and
  /// the ω_opt scale), keeping the machine tunables at `base`'s values.
  /// Use when comparing scenarios on one fixed machine — e.g.
  /// bench/fig18_operator_families isolates the operator-dependent
  /// parameters so machine-knob timing noise cannot masquerade as a
  /// retuning effect.  Part of the searched-config cache key.
  bool relax_only = false;

  /// Accuracy the workload's V-cycle phase must reach (see objective note
  /// in profile_search.cpp).
  double target_accuracy = 1e5;

  /// V-cycle cap before a candidate is declared non-convergent.
  int max_cycles = 80;

  /// Training instances raced per candidate.
  int instances = 2;

  InputDistribution distribution = InputDistribution::kUnbiased;

  /// Seed for both the training set and the population RNG (overrides
  /// population.seed).  Part of the cache key.
  std::uint64_t seed = 20091114;

  /// Engine knobs (budget: generations etc.).  Candidates race under
  /// CandidateTester's fixed abandon rule, with no wall-clock timeout.
  PopulationOptions population;

  std::function<void(const std::string&)> log;
};

/// Search outcome: concrete runtime parameters plus the provenance needed
/// to persist and reproduce them.  The winning smoother and coarsening are
/// not kept: nothing an Engine runs reads them (tuned tables carry their
/// own per cell), and from_json ignores them in older documents.
struct SearchedProfile {
  rt::MachineProfile profile;     ///< name gains a "+searched" suffix
  solvers::RelaxTunables relax;

  double default_seconds = 0.0;   ///< workload total under `base`
  double searched_seconds = 0.0;  ///< workload total under the winner
  int evaluations = 0;            ///< objective invocations spent

  std::uint64_t seed = 0;         ///< ProfileSearchOptions::seed
  int generations = 0;            ///< population budget actually configured
  int population = 0;

  /// Serialization for the config cache's "searched_profile" section.
  Json to_json() const;
  static SearchedProfile from_json(const Json& json);
};

/// Runs the population search over runtime parameters.  Deterministic in
/// options.seed up to wall-clock measurement noise (candidate *scores* are
/// real timings; the candidate *stream* is seeded).
SearchedProfile search_profile(const ProfileSearchOptions& options);

}  // namespace pbmg::search
