#pragma once

#include <string>
#include <vector>

#include "solvers/relax.h"
#include "support/json.h"

/// \file table.h
/// The tuned-algorithm representation: the data a PetaBricks configuration
/// file would hold after autotuning (§3.2.1).
///
/// For each recursion level k (grid side 2^k + 1) and each discrete
/// accuracy index i, the tables record which choice the dynamic program
/// selected for MULTIGRID-V_i (paper §2.3) and FULL-MULTIGRID_i (§2.4),
/// together with the iteration counts the trainer measured.  Executors
/// (tune/executor.h) interpret these tables; they are the reified
/// equivalent of the code paths a PetaBricks binary would specialise.

namespace pbmg::tune {

/// The three algorithmic choices of MULTIGRID-V_i (paper §2.3, line 1-5).
enum class VKind {
  kDirect,   ///< banded Cholesky solve
  kIterSor,  ///< SOR(ω_opt) iterated `iterations` times
  kRecurse,  ///< RECURSE body iterated `iterations` times with coarse call
             ///< MULTIGRID-V_{sub_accuracy}
};

/// Sentinel sub-accuracy for kRecurse: the coarse call is a *single*
/// recursion body per level (the classical V-cycle) instead of an
/// accuracy-certified MULTIGRID-V_j.  The paper's space bottoms out at
/// accuracy 10¹, which over-solves coarse corrections on slowly
/// converging operators (each level then needs several certified bodies
/// and the work compounds exponentially down the hierarchy); the
/// classical cycle is the escape hatch the autotuner may select.
inline constexpr int kClassicalCoarse = -1;

/// One tuned decision for MULTIGRID-V_i at a level.
struct VChoice {
  VKind kind = VKind::kDirect;
  int sub_accuracy = -1;  ///< j of the coarse MULTIGRID-V_j, or
                          ///< kClassicalCoarse (kRecurse only)
  int iterations = 0;     ///< SOR sweeps or RECURSE iterations (>= 1 for
                          ///< non-direct cells; from_json enforces it)
  /// Smoother of the RECURSE body's pre/post sweeps (kRecurse only; the
  /// kIterSor shortcut stays point SOR at ω_opt, the paper's iterative
  /// baseline).  The trainer enumerates this per level — the relaxation
  /// axis of the choice space — so line smoothers are *discovered* for
  /// the anisotropic operator families rather than hard-coded.  Never
  /// kJacobi (not tunable; from_json rejects it).
  solvers::RelaxKind smoother = solvers::RelaxKind::kSor;
  /// Which coarse-operator ladder the RECURSE body corrects against
  /// (kRecurse only): the legacy averaged-coefficient 5-point ladder or
  /// the exact Galerkin R·A·P 9-point ladder (grid/stencil_op.h).  The
  /// second tuned axis this table carries; serialized as "coarsening"
  /// with a missing field reading as the legacy kAverage.
  grid::Coarsening coarsening = grid::Coarsening::kAverage;
};

/// The choices of FULL-MULTIGRID_i (paper §2.4): direct, or an ESTIMATE_j
/// phase followed by either SOR or RECURSE_m iteration.
enum class FmgKind {
  kDirect,
  kEstimateThenSor,
  kEstimateThenRecurse,
};

/// One tuned decision for FULL-MULTIGRID_i at a level.
struct FmgChoice {
  FmgKind kind = FmgKind::kDirect;
  int estimate_accuracy = -1;  ///< j of ESTIMATE_j (non-direct kinds)
  int solve_accuracy = -1;     ///< m of RECURSE_m (kEstimateThenRecurse)
  int iterations = 0;          ///< SOR sweeps or RECURSE iterations after
                               ///< the estimate (>= 0; 0 when it sufficed)
  /// Smoother of the solve phase's RECURSE bodies (kEstimateThenRecurse
  /// only); inherited from the V cell that tuned RECURSE_m at this level
  /// so the FMG candidate count stays unchanged (see trainer.cpp).  Never
  /// kJacobi, as for VChoice.
  solvers::RelaxKind smoother = solvers::RelaxKind::kSor;
  /// Coarsening of the solve phase's RECURSE bodies, inherited from the
  /// same V cell as the smoother; missing ⇒ legacy kAverage.
  grid::Coarsening coarsening = grid::Coarsening::kAverage;
};

/// A tuned table cell together with the measurements that selected it.
template <typename Choice>
struct TunedEntry {
  Choice choice;
  double expected_time = 0.0;      ///< trainer's time estimate (seconds)
  double measured_accuracy = 0.0;  ///< worst accuracy over training inputs
  bool trained = false;            ///< false for never-trained cells
};

using VEntry = TunedEntry<VChoice>;
using FmgEntry = TunedEntry<FmgChoice>;

/// Complete autotuned configuration: both tables plus provenance.
class TunedConfig {
 public:
  TunedConfig() = default;

  /// Creates an untrained config covering levels [1, max_level] with the
  /// given discrete accuracy ladder (ascending, e.g. {10,1e3,...,1e9}).
  /// Level-1 (N = 3) cells are pre-set to the direct solve, the base case
  /// of every algorithm in the paper.
  TunedConfig(std::vector<double> accuracies, int max_level);

  int max_level() const { return max_level_; }
  int accuracy_count() const { return static_cast<int>(accuracies_.size()); }
  const std::vector<double>& accuracies() const { return accuracies_; }

  /// Index of the given accuracy value in the ladder; throws
  /// InvalidArgument when absent.
  int accuracy_index(double accuracy) const;

  /// Cell accessors; level in [1, max_level], index in [0, accuracy_count).
  VEntry& v_entry(int level, int accuracy_index);
  const VEntry& v_entry(int level, int accuracy_index) const;
  FmgEntry& fmg_entry(int level, int accuracy_index);
  const FmgEntry& fmg_entry(int level, int accuracy_index) const;

  /// Provenance (stored in the config file for reproducibility).
  std::string profile_name;   ///< machine profile tuned on
  std::string distribution;   ///< training distribution name
  std::string op_family = "poisson";  ///< operator family tuned on
  std::uint64_t seed = 0;     ///< training RNG seed
  std::string strategy;       ///< "autotuned" or a heuristic label

  /// Serialization (see config file format in README).
  Json to_json() const;
  static TunedConfig from_json(const Json& json);

  /// File convenience wrappers.
  void save(const std::string& path) const;
  static TunedConfig load(const std::string& path);

 private:
  void check_cell(int level, int accuracy_index) const;

  std::vector<double> accuracies_;
  int max_level_ = 0;
  // Indexed [level][accuracy]; level 0 is unused padding so that
  // tables_[k] corresponds to recursion level k.
  std::vector<std::vector<VEntry>> v_;
  std::vector<std::vector<FmgEntry>> fmg_;
};

/// The accuracy ladder used throughout the paper's evaluation:
/// {10, 10³, 10⁵, 10⁷, 10⁹}.
std::vector<double> paper_accuracies();

/// What the solves entering `config` at level `top` can execute.  The
/// walk starts at MULTIGRID-V_i and FULL-MULTIGRID_i at `top` for every
/// accuracy index i and follows what the executor follows: a RECURSE
/// body's coarse MULTIGRID-V_j, an FMG cell's ESTIMATE_j and its RECURSE_m
/// bodies, and classical ramps, which carry their cell's smoother and
/// coarsening down to the level-1 direct solve.  Untrained or out-of-range
/// cells are not followed (executing one throws).  A binding prepares
/// exactly this: the Galerkin RAP ladder only when `rap_below_top` (at
/// `top` both ladders share the fine operator), and line-smoother scratch
/// only when `line_smoothers`.
struct Reach {
  bool rap_below_top = false;   ///< a reachable level below `top` reads RAP
  bool line_smoothers = false;  ///< a reachable body runs a line smoother
};
Reach reach(const TunedConfig& config, int top);

/// " {line_x}"-style rendering suffix for non-default smoothers; empty
/// for point SOR, so the historical point-only renderings are unchanged.
/// Shared by the call-stack renderers and the trainer's progress log.
std::string smoother_tag(solvers::RelaxKind kind);

/// " {rap}"-style suffix for non-default coarsening; empty for the legacy
/// averaged ladder, so historical renderings are unchanged.
std::string coarsening_tag(grid::Coarsening mode);

/// Renders the call-stack view of a tuned MULTIGRID-V_i (paper Figure 4):
/// one line per recursion level showing which accuracy variant the tuned
/// algorithm invokes and what it does there.
std::string render_call_stack(const TunedConfig& config, int level,
                              int accuracy_index);

/// Same for FULL-MULTIGRID_i.
std::string render_fmg_call_stack(const TunedConfig& config, int level,
                                  int accuracy_index);

}  // namespace pbmg::tune
