#include "search/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "support/error.h"

namespace pbmg::search {

PopulationSearch::PopulationSearch(const ParamSpace& space,
                                   CandidateTester& tester,
                                   PopulationOptions options)
    : space_(space), tester_(tester), options_(std::move(options)) {
  PBMG_CHECK(options_.population >= 1,
             "PopulationSearch: population must be >= 1");
  PBMG_CHECK(options_.mutants_per_elite >= 0 && options_.immigrants >= 0,
             "PopulationSearch: offspring counts must be >= 0");
  PBMG_CHECK(options_.mutants_per_elite + options_.immigrants >= 1,
             "PopulationSearch: each generation needs at least one offspring");
  PBMG_CHECK(options_.generations >= 0,
             "PopulationSearch: generations must be >= 0");
  PBMG_CHECK(space_.size() >= 1, "PopulationSearch: empty parameter space");
}

void PopulationSearch::log_line(const std::string& line) const {
  if (options_.log) options_.log(line);
}

SearchResult PopulationSearch::run() {
  Rng rng(options_.seed);
  SearchResult result;
  std::vector<Evaluated> population;
  std::set<std::string> seen;
  const int evaluations_before = tester_.evaluations();

  double best_known = std::numeric_limits<double>::infinity();
  const auto race = [&](Candidate candidate) {
    space_.clamp(candidate);
    const std::string key = space_.fingerprint(candidate);
    if (!seen.insert(key).second) return;  // already measured this point
    const TestResult tested = tester_.test(candidate, best_known);
    if (!tested.completed) return;         // abandoned, timed out, or failed
    best_known = std::min(best_known, tested.total_seconds);
    population.push_back(Evaluated{std::move(candidate), tested.total_seconds,
                                   tested.mean_seconds});
  };

  // Seed the population: the default configuration first (its score is the
  // baseline the search must beat), then random exploration up to size.
  race(space_.default_candidate());
  result.default_total_seconds =
      population.empty() ? std::numeric_limits<double>::infinity()
                         : population.front().total_seconds;
  for (int i = 1; i < options_.population; ++i) {
    race(space_.random_candidate(rng));
  }

  const auto select = [&] {
    // Stable sort: ties resolve to the earlier (incumbent) candidate, which
    // keeps the search deterministic and biased toward proven points.
    std::stable_sort(population.begin(), population.end(),
                     [](const Evaluated& a, const Evaluated& b) {
                       return a.total_seconds < b.total_seconds;
                     });
    if (static_cast<int>(population.size()) > options_.population) {
      population.resize(static_cast<std::size_t>(options_.population));
    }
  };
  select();

  for (int gen = 1; gen <= options_.generations; ++gen) {
    // Breed first (fixed RNG consumption regardless of test outcomes),
    // then race: keeps runs with the same seed on identical paths.
    std::vector<Candidate> offspring;
    for (const Evaluated& elite : population) {
      for (int m = 0; m < options_.mutants_per_elite; ++m) {
        offspring.push_back(space_.mutated(elite.candidate, rng));
      }
    }
    // Immigrants always flow — and when *nothing* has completed yet, the
    // elites' whole breeding budget goes to fresh random candidates too.
    // A categorical axis can make most of the space infeasible on some
    // workloads (e.g. only alternating-zebra smoothing converges on the
    // rotated-anisotropy operator family), so an all-DNF seed round must
    // keep hunting for the feasible region, not give up.
    const int immigrants =
        population.empty()
            ? options_.immigrants +
                  options_.population * options_.mutants_per_elite
            : options_.immigrants;
    for (int i = 0; i < immigrants; ++i) {
      offspring.push_back(space_.random_candidate(rng));
    }
    for (Candidate& candidate : offspring) race(std::move(candidate));

    select();
    ++result.generations_run;
    result.best_history.push_back(population.empty()
                                      ? std::numeric_limits<double>::infinity()
                                      : population.front().total_seconds);
    if (options_.log && !population.empty()) {
      std::ostringstream oss;
      oss << "[search] gen " << gen << "/" << options_.generations
          << " best " << population.front().total_seconds * 1e3 << " ms ("
          << space_.describe(population.front().candidate) << ")";
      log_line(oss.str());
    }
  }

  result.evaluations = tester_.evaluations() - evaluations_before;
  if (population.empty()) {
    throw NumericalError(
        "PopulationSearch: no candidate completed the test set (objective "
        "infeasible under the given timeout)");
  }
  result.best = population.front();
  return result;
}

}  // namespace pbmg::search
