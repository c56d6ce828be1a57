#pragma once

#include <string>

#include "engine/engine.h"
#include "tune/table.h"
#include "tune/trainer.h"

/// \file config_cache.h
/// Disk cache of tuned configurations.
///
/// PetaBricks writes an optimised configuration file after tuning and
/// reuses it on subsequent runs (§3.2.1).  We reproduce that workflow: a
/// tuned config is stored as JSON under a cache directory, keyed by
/// everything that determines the tuning outcome — the strategy, the
/// machine profile, the full ProblemSpec (operator family × distribution
/// × level range), the accuracy ladder, seed, instance count, the
/// smoother and coarsening candidate lists, and whether FMG cells were
/// trained.
/// Benchmark binaries share one cache so that, e.g., Figures 10–13 train
/// each (profile, distribution) combination once, and each operator
/// family gets its own tuned tables (bench/fig18_operator_families).

namespace pbmg::tune {

/// Default cache directory: $PBMG_CACHE_DIR or "./pbmg_tuned_cache".
std::string default_cache_dir();

/// Filename-safe cache key for a (options, profile, strategy) combination.
/// `strategy` is "autotuned" or "heuristic-<index>".
std::string config_cache_key(const TrainerOptions& options,
                             const std::string& profile_name,
                             const std::string& strategy);

/// Loads the cached config if present and valid, otherwise trains on
/// `engine` and saves it (the cache key includes the engine's profile
/// name).  A corrupt or truncated cache file (unparseable JSON, schema
/// violations, even out-of-range number literals) is treated as a cache
/// miss: the config is retrained and the entry overwritten.
/// `heuristic_sub_accuracy` < 0 selects full autotuning; >= 0 trains the
/// Figure-7 heuristic with that fixed sub-accuracy index.  `from_cache`,
/// when non-null, reports whether a disk hit occurred.
TunedConfig load_or_train(const TrainerOptions& options, Engine& engine,
                          const std::string& cache_dir,
                          int heuristic_sub_accuracy = -1,
                          bool* from_cache = nullptr);

/// Cache key for the search-then-train mode.  Extends config_cache_key
/// with everything that determines the profile search: its seed and budget
/// (generations × population × offspring counts), workload level/accuracy,
/// and instance count.
std::string searched_config_cache_key(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options);

/// Cached search-then-train (see tune::search_then_train): one JSON file
/// holds the tuned tables plus a "searched_profile" section with the
/// machine profile and relaxation weights the tables were trained under,
/// and (schema v7) a "latency_baseline" section with the tables' healthy
/// per-(n × accuracy) latency distribution for drift detection.
/// Corrupt entries are recomputed and overwritten, like load_or_train.
SearchTrainResult load_or_search_train(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options,
    const std::string& cache_dir, bool* from_cache = nullptr);

}  // namespace pbmg::tune
