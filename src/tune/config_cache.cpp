#include "tune/config_cache.h"

#include <cmath>
#include <filesystem>
#include <sstream>

#include "support/argparse.h"

namespace pbmg::tune {

std::string default_cache_dir() {
  return env_string("PBMG_CACHE_DIR", "pbmg_tuned_cache");
}

namespace {

/// Compact token for the smoother candidate list, order included (the
/// measurement order drives budget pruning, so two orders can produce
/// different tables): point_rb → 'p', line_x → 'x', line_y → 'y',
/// line_zebra_alt → 'z' (default list: "zxyp").
std::string smoother_token(const TrainerOptions& options) {
  std::string token;
  for (const solvers::RelaxKind kind : options.smoothers) {
    switch (kind) {
      case solvers::RelaxKind::kSor: token += 'p'; break;
      case solvers::RelaxKind::kJacobi: token += 'j'; break;
      case solvers::RelaxKind::kLineX: token += 'x'; break;
      case solvers::RelaxKind::kLineY: token += 'y'; break;
      case solvers::RelaxKind::kLineZebraAlt: token += 'z'; break;
    }
  }
  return token;
}

/// Compact token for the coarsening candidate list, order included (the
/// measurement order drives budget pruning): kRap → 'r', kAverage → 'a'
/// (default list: "ra").
std::string coarsening_token(const TrainerOptions& options) {
  std::string token;
  for (const grid::Coarsening mode : options.coarsenings) {
    token += mode == grid::Coarsening::kRap ? 'r' : 'a';
  }
  return token;
}

}  // namespace

std::string config_cache_key(const TrainerOptions& options,
                             const std::string& profile_name,
                             const std::string& strategy) {
  std::ostringstream oss;
  // "v7": bump when runtime characteristics change enough to invalidate
  // previously tuned tables (v2 → v3: scenarios became first-class — the
  // operator family joined the key via ProblemSpec; v3 → v4: the smoother
  // became a tuned per-level choice; v4 → v5: coarsening became a tuned
  // per-level choice — tables gained the Galerkin-RAP axis; v5 → v6: the
  // kernel policy joined the searched-profile schema — the layout and
  // simd_width axes change the candidate stream and the timings behind
  // every stored table, so every v5 entry is a clean miss and gets
  // retrained with the packed-kernel dimensions enabled; v6 → v7:
  // searched entries gained the "latency_baseline" section — the tuned
  // tables' healthy latency distribution, which the serving-time drift
  // watcher needs, so baseline-less v6 entries are clean misses).  The
  // trailing "_f1" / "_f0" token (FMG cells trained or not) joined v7
  // later: before it, a V-only entry was served to a request for FMG
  // tables, whose FMG solves then threw.  Every v7 entry written before
  // the token is a clean miss once.
  oss << "v7_" << strategy << "_" << profile_name << "_"
      << options.problem_spec().cache_token() << "_m"
      << options.accuracies.size() << "_p"
      << static_cast<int>(std::lround(std::log10(options.accuracies.back())))
      << "_i" << options.training_instances << "_s" << options.seed << "_sm"
      << smoother_token(options) << "_co" << coarsening_token(options)
      << "_f" << (options.train_fmg ? 1 : 0);
  return oss.str();
}

TunedConfig load_or_train(const TrainerOptions& options, Engine& engine,
                          const std::string& cache_dir,
                          int heuristic_sub_accuracy, bool* from_cache) {
  const std::string strategy =
      heuristic_sub_accuracy < 0
          ? "autotuned"
          : "heuristic" + std::to_string(heuristic_sub_accuracy);
  const std::string key =
      config_cache_key(options, engine.profile().name, strategy);
  const std::filesystem::path path =
      std::filesystem::path(cache_dir) / (key + ".json");

  if (std::filesystem::exists(path)) {
    try {
      TunedConfig config = TunedConfig::load(path.string());
      if (from_cache != nullptr) *from_cache = true;
      return config;
    } catch (const std::exception&) {
      // Corrupt or stale cache entry: retrain below and overwrite.  The
      // wide catch is deliberate — a truncated file surfaces as ConfigError,
      // but a damaged number literal can escape the JSON layer as
      // std::out_of_range, and both must count as cache misses.
    }
  }

  Trainer trainer(options, engine);
  TunedConfig config = heuristic_sub_accuracy < 0
                           ? trainer.train()
                           : trainer.train_heuristic(heuristic_sub_accuracy);
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (!ec) config.save(path.string());
  if (from_cache != nullptr) *from_cache = false;
  return config;
}

std::string searched_config_cache_key(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options) {
  const search::PopulationOptions& pop = search_options.population;
  std::ostringstream oss;
  // Everything that changes the candidate stream or its scores must be in
  // the key: search seed and budget (generations/population/offspring mix
  // — mutants and immigrants separately, they consume RNG differently),
  // plus the workload (level, operator family, distribution, accuracy to
  // two decimals of its exponent, cycle cap, instance count).
  oss << config_cache_key(options, search_options.base.name, "searched")
      << "_ss" << search_options.seed << "_g" << pop.generations << "_p"
      << pop.population << "_mu" << pop.mutants_per_elite << "_im"
      << pop.immigrants << "_wL" << search_options.level << "_wo"
      << to_string(search_options.op_family)
      << (search_options.relax_only ? "_wr1" : "") << "_wd"
      << to_string(search_options.distribution) << "_wa"
      << std::lround(100.0 * std::log10(search_options.target_accuracy))
      << "_wc" << search_options.max_cycles << "_wi"
      << search_options.instances;
  return oss.str();
}

SearchTrainResult load_or_search_train(
    const TrainerOptions& options,
    const search::ProfileSearchOptions& search_options,
    const std::string& cache_dir, bool* from_cache) {
  const std::string key = searched_config_cache_key(options, search_options);
  const std::filesystem::path path =
      std::filesystem::path(cache_dir) / (key + ".json");

  if (std::filesystem::exists(path)) {
    try {
      const Json doc = Json::parse(read_text_file(path.string()));
      SearchTrainResult result;
      // The tuned tables and the searched profile live in one document so
      // they cannot drift apart; from_json ignores the extra section.
      result.config = TunedConfig::from_json(doc);
      result.searched =
          search::SearchedProfile::from_json(doc.at("searched_profile"));
      // The baseline is mandatory in schema v7: a searched entry without
      // one cannot seed a drift watcher, so treat it as corrupt (a clean
      // miss) rather than silently serving a blind service.
      result.baseline =
          obs::LatencyBaseline::from_json(doc.at("latency_baseline"));
      // Validate the deserialized runtime parameters *here*, symmetric
      // with load_or_train's schema validation: callers install
      // result.searched straight into an Engine, whose constructor throws
      // (uncaught) for out-of-range tunables.  A corrupted entry must
      // surface as a cache miss and a re-search, never as a crash at
      // Engine construction.  SearchedProfile::from_json also validates;
      // the explicit call keeps the contract even if that serializer
      // loosens, and turns any violation into the catch below.
      solvers::validate_relax_tunables(result.searched.relax);
      PBMG_CHECK(result.searched.profile.threads >= 1,
                 "searched profile: threads must be >= 1");
      if (from_cache != nullptr) *from_cache = true;
      return result;
    } catch (const std::exception&) {
      // Corrupt or stale entry: redo the search and training below.
    }
  }

  SearchTrainResult result = search_then_train(options, search_options);
  Json doc = result.config.to_json();
  doc.set("searched_profile", result.searched.to_json());
  doc.set("latency_baseline", result.baseline.to_json());
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (!ec) write_text_file(path.string(), doc.dump(2) + "\n");
  if (from_cache != nullptr) *from_cache = false;
  return result;
}

}  // namespace pbmg::tune
