#include "search/candidate_tester.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace pbmg::search {

namespace {

/// A candidate is abandoned once its accumulated cost exceeds this factor
/// times the best known total (the trainer prunes by the same factor).
constexpr double kEarlyAbandonFactor = 2.0;

/// Floor added to the abandon budget so timing noise at microsecond
/// scales cannot reject viable candidates.
constexpr double kBudgetFloorSeconds = 1e-3;

}  // namespace

CandidateTester::CandidateTester(const ParamSpace& space, Objective objective,
                                 std::vector<tune::TrainingInstance> instances,
                                 TesterOptions options)
    : space_(space),
      objective_(std::move(objective)),
      instances_(std::move(instances)),
      options_(options) {
  PBMG_CHECK(static_cast<bool>(objective_),
             "CandidateTester: objective must be callable");
  PBMG_CHECK(!instances_.empty(),
             "CandidateTester: need at least one training instance");
  PBMG_CHECK(options_.timeout_seconds > 0.0,
             "CandidateTester: timeout must be positive");
}

TestResult CandidateTester::test(const Candidate& candidate,
                                 double best_known_total) {
  Candidate clamped = candidate;
  space_.clamp(clamped);

  const double abandon_budget =
      std::isfinite(best_known_total)
          ? kEarlyAbandonFactor * best_known_total + kBudgetFloorSeconds
          : std::numeric_limits<double>::infinity();
  Deadline deadline(options_.timeout_seconds);

  TestResult result;
  double total = 0.0;
  const int count = static_cast<int>(instances_.size());
  for (int i = 0; i < count; ++i) {
    const double cost = objective_(
        clamped, instances_[static_cast<std::size_t>(i)], deadline);
    ++evaluations_;
    result.instances_run = i + 1;
    if (!std::isfinite(cost) || cost < 0.0 || deadline.expired()) {
      return result;  // failed / timed out: totals stay infinite
    }
    total += cost;
    if (i + 1 < count && total > abandon_budget) {
      result.abandoned = true;
      return result;  // early abandon: cannot beat the incumbent
    }
  }
  result.total_seconds = total;
  result.mean_seconds = total / static_cast<double>(count);
  result.completed = true;
  return result;
}

}  // namespace pbmg::search
