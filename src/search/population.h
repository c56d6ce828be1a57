#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "search/candidate_tester.h"
#include "search/param_space.h"

/// \file population.h
/// Elitist mutate-and-race population search (PetaBricks sgatuner style).
///
/// Each generation mutates every elite, mixes in fresh random immigrants,
/// races the offspring against the incumbents through CandidateTester's
/// pruning, and keeps the fastest `population` survivors.  The default
/// candidate is always evaluated first so the search result can never be
/// worse than the un-searched configuration, and the RNG is a seeded
/// support/rng stream: with a deterministic objective the whole search is
/// bit-reproducible.

namespace pbmg::search {

/// Population-search hyper-parameters.
struct PopulationOptions {
  int population = 4;         ///< elites kept between generations
  int mutants_per_elite = 2;  ///< mutation offspring per elite per generation
  int immigrants = 1;         ///< fresh random candidates per generation
  int generations = 8;        ///< mutation rounds
  std::uint64_t seed = 20091114;  ///< RNG seed (same seed ⇒ same search)

  /// Optional progress sink (one line per generation).
  std::function<void(const std::string&)> log;
};

/// A candidate together with its measured cost.
struct Evaluated {
  Candidate candidate;
  double total_seconds = std::numeric_limits<double>::infinity();
  double mean_seconds = std::numeric_limits<double>::infinity();
};

/// Outcome of a population search.
struct SearchResult {
  Evaluated best;                    ///< fastest candidate found
  double default_total_seconds =     ///< score of the space's default
      std::numeric_limits<double>::infinity();
  int evaluations = 0;               ///< objective invocations consumed
  int generations_run = 0;
  std::vector<double> best_history;  ///< best total after each generation
};

/// Elitist mutate-and-race engine.
class PopulationSearch {
 public:
  /// Space and tester must outlive the search.
  PopulationSearch(const ParamSpace& space, CandidateTester& tester,
                   PopulationOptions options);

  /// Runs the search.  Throws NumericalError when no candidate (including
  /// the default) completes the test set — the objective is then unusable.
  SearchResult run();

 private:
  void log_line(const std::string& line) const;

  const ParamSpace& space_;
  CandidateTester& tester_;
  PopulationOptions options_;
};

}  // namespace pbmg::search
