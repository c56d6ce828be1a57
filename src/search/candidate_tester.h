#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "search/param_space.h"
#include "support/timer.h"
#include "tune/accuracy.h"

/// \file candidate_tester.h
/// Measures one candidate on a set of training instances with pruning.
///
/// This is the racing half of PetaBricks' population tuner: a candidate is
/// only worth measuring precisely while it can still beat the incumbent.
/// Two guards bound the cost of a bad candidate:
///
///   - early abandon: the per-instance costs reported by the objective are
///     accumulated, and once the running total exceeds 2× the best known
///     total plus a 1 ms noise floor (the trainer's pruning rule),
///     remaining instances are skipped (deterministic — driven by reported
///     costs, not wall time, so unit tests and replays behave
///     identically);
///   - timeout: a wall-clock Deadline (support/timer.h) handed to the
///     objective, which should poll it inside long iteration loops and bail
///     out, protecting the search from pathological candidates (e.g. a
///     divergent relaxation weight).
///
/// The tester itself owns no runtime state: objectives that need a
/// scheduler or scratch pool construct (and may cache) a pbmg::Engine per
/// candidate — see search/profile_search.cpp — so candidate evaluation
/// never touches process-wide singletons and testers on different
/// threads cannot interfere.

namespace pbmg::search {

/// Candidate measurement limits.
struct TesterOptions {
  /// Hard wall-clock cap per candidate, in seconds.
  double timeout_seconds = std::numeric_limits<double>::infinity();
};

/// Outcome of measuring one candidate.
struct TestResult {
  /// Sum of per-instance costs; +inf when the candidate failed or was
  /// abandoned before finishing every instance.
  double total_seconds = std::numeric_limits<double>::infinity();

  /// total_seconds / instance count (only meaningful when `completed`).
  double mean_seconds = std::numeric_limits<double>::infinity();

  bool completed = false;   ///< every instance ran and reported finite cost
  bool abandoned = false;   ///< pruned by the early-abandon budget (not DNF)
  int instances_run = 0;    ///< instances measured before completion/abandon
};

/// Runs candidates against training instances under the pruning rules.
class CandidateTester {
 public:
  /// The objective measures one candidate on one instance and returns its
  /// cost in seconds (+inf when the candidate cannot solve the instance).
  /// It should poll `deadline` inside long loops and return +inf once
  /// expired.
  using Objective = std::function<double(
      const Candidate&, const tune::TrainingInstance&, const Deadline&)>;

  /// The space is used for candidate validation and must outlive the
  /// tester.
  CandidateTester(const ParamSpace& space, Objective objective,
                  std::vector<tune::TrainingInstance> instances,
                  TesterOptions options = {});

  /// Measures `candidate`.  `best_known_total` is the incumbent's
  /// total_seconds and sets the abandon budget (+inf disables abandoning).
  TestResult test(const Candidate& candidate,
                  double best_known_total =
                      std::numeric_limits<double>::infinity());

  const ParamSpace& space() const { return space_; }
  const std::vector<tune::TrainingInstance>& instances() const {
    return instances_;
  }
  const TesterOptions& options() const { return options_; }

  /// Objective invocations so far (observability; search budget reporting).
  int evaluations() const { return evaluations_; }

 private:
  const ParamSpace& space_;
  Objective objective_;
  std::vector<tune::TrainingInstance> instances_;
  TesterOptions options_;
  int evaluations_ = 0;
};

}  // namespace pbmg::search
