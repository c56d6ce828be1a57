// Focused tests for the tuned-config disk cache: key stability and
// per-field divergence, save→load round trips, corrupt-entry recovery
// (every flavour of damage must read as a cache miss), malformed tables,
// profiles and baselines failing as ConfigError (including 500 seeded
// mutations of saved documents), and the combined search-then-train
// artifact with its "searched_profile" section.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "obs/drift.h"
#include "runtime/machine_profile.h"
#include "search/profile_search.h"
#include "solvers/relax.h"
#include "support/json.h"
#include "support/rng.h"
#include "tune/config_cache.h"
#include "tune/table.h"
#include "tune/trainer.h"

namespace pbmg::tune {
namespace {

Engine& engine() {
  static Engine instance(rt::serial_profile());
  return instance;
}

rt::Scheduler& sched() { return engine().scheduler(); }

TrainerOptions tiny_options() {
  TrainerOptions options;
  options.max_level = 3;  // N <= 9: training takes milliseconds
  options.training_instances = 1;
  options.train_fmg = false;
  options.seed = 99;
  return options;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A hand-built config exercising every choice kind, for IO tests that
/// should not pay for training.
TunedConfig handmade_config() {
  TunedConfig config(paper_accuracies(), 3);
  config.profile_name = "serial";
  config.distribution = "unbiased";
  config.seed = 7;
  config.strategy = "autotuned";
  for (int level = 2; level <= 3; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      VEntry v;
      v.choice.kind = (i % 2 == 0) ? VKind::kRecurse : VKind::kIterSor;
      v.choice.sub_accuracy = (i % 2 == 0) ? i : -1;
      v.choice.iterations = i + 1;
      v.expected_time = 0.001 * (level + i);
      v.measured_accuracy = 12.5 * (i + 1);
      v.trained = true;
      config.v_entry(level, i) = v;
      FmgEntry f;
      f.choice.kind = FmgKind::kEstimateThenRecurse;
      f.choice.estimate_accuracy = i;
      f.choice.solve_accuracy = i;
      f.choice.iterations = i;
      f.trained = true;
      config.fmg_entry(level, i) = f;
    }
  }
  return config;
}

// ------------------------------------------------------------- cache key --

TEST(ConfigCacheKey, StableAcrossIdenticalOptions) {
  const TrainerOptions a = tiny_options();
  const TrainerOptions b = tiny_options();
  EXPECT_EQ(config_cache_key(a, "serial", "autotuned"),
            config_cache_key(b, "serial", "autotuned"));
}

TEST(ConfigCacheKey, DivergesWhenAnyFieldChanges) {
  const TrainerOptions base = tiny_options();
  const std::string reference = config_cache_key(base, "serial", "autotuned");

  TrainerOptions changed = tiny_options();
  changed.max_level = 4;
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  changed = tiny_options();
  changed.training_instances = 2;
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  changed = tiny_options();
  changed.seed = 100;
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  changed = tiny_options();
  changed.distribution = InputDistribution::kBiased;
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  changed = tiny_options();
  changed.accuracies = {10.0, 1e3, 1e5};  // shorter ladder
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  changed = tiny_options();
  changed.accuracies = {10.0, 1e3, 1e5, 1e7, 1e11};  // different top rung
  EXPECT_NE(config_cache_key(changed, "serial", "autotuned"), reference);

  EXPECT_NE(config_cache_key(base, "niagara", "autotuned"), reference);
  EXPECT_NE(config_cache_key(base, "serial", "heuristic1"), reference);
}

// ------------------------------------------------------- problem specs --

TEST(ProblemSpecKey, DistinctOperatorFamiliesProduceDistinctKeys) {
  const TrainerOptions base = tiny_options();
  std::vector<std::string> keys;
  for (OperatorFamily family : kAllOperatorFamilies) {
    TrainerOptions options = tiny_options();
    options.op_family = family;
    keys.push_back(config_cache_key(options, "serial", "autotuned"));
  }
  for (std::size_t a = 0; a < keys.size(); ++a) {
    for (std::size_t b = a + 1; b < keys.size(); ++b) {
      EXPECT_NE(keys[a], keys[b])
          << to_string(kAllOperatorFamilies[a]) << " vs "
          << to_string(kAllOperatorFamilies[b]);
    }
  }
  // The searched-mode key inherits the operator token too.
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  TrainerOptions aniso = tiny_options();
  aniso.op_family = OperatorFamily::kAnisotropic;
  EXPECT_NE(searched_config_cache_key(aniso, search_options),
            searched_config_cache_key(base, search_options));
}

TEST(ProblemSpecKey, SpecRoundTripsBitwise) {
  for (OperatorFamily family : kAllOperatorFamilies) {
    for (int dist = 0; dist < 3; ++dist) {
      ProblemSpec spec;
      spec.op = family;
      spec.distribution = static_cast<InputDistribution>(dist);
      spec.level = 7;
      const ProblemSpec back = ProblemSpec::from_json(spec.to_json());
      EXPECT_TRUE(back == spec) << spec.cache_token();
      EXPECT_EQ(back.to_json().dump(), spec.to_json().dump());
      // And the token is injective across the fields it encodes.
      ProblemSpec other = spec;
      other.level = 8;
      EXPECT_NE(other.cache_token(), spec.cache_token());
    }
  }
}

TEST(ProblemSpecKey, TrainerOptionsExposeTheirSpec) {
  TrainerOptions options = tiny_options();
  options.op_family = OperatorFamily::kJumpCoefficient;
  options.distribution = InputDistribution::kBiased;
  const ProblemSpec spec = options.problem_spec();
  EXPECT_EQ(spec.op, OperatorFamily::kJumpCoefficient);
  EXPECT_EQ(spec.distribution, InputDistribution::kBiased);
  EXPECT_EQ(spec.level, options.max_level);
}

TEST(ProblemSpecKey, OldPoissonOnlySchemaIsACleanMiss) {
  // A cache written before operator families existed used the v2 key
  // layout (no operator token).  The new code must neither load nor
  // disturb such an entry: its key simply never matches, so the config is
  // retrained and stored beside the legacy file.
  const auto dir = fresh_dir("pbmg_cc_oldschema");
  const TrainerOptions options = tiny_options();
  // The exact v2 layout for tiny_options (see PR 1's config_cache.cpp):
  // v2_<strategy>_<profile>_<dist>_L<level>_m<rungs>_p<top-exp>_i<n>_s<seed>.
  const std::string old_key = "v2_autotuned_serial_unbiased_L3_m5_p9_i1_s99";
  ASSERT_NE(config_cache_key(options, "serial", "autotuned"), old_key);
  const auto old_path = dir / (old_key + ".json");
  const std::string old_content = handmade_config().to_json().dump(2) + "\n";
  write_text_file(old_path.string(), old_content);

  bool from_cache = true;
  const TunedConfig config =
      load_or_train(options, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), options.max_level);
  // The legacy entry is untouched; the retrained config landed under the
  // new key.
  EXPECT_EQ(read_text_file(old_path.string()), old_content);
  const auto new_path =
      dir / (config_cache_key(options, sched().profile().name, "autotuned") +
             ".json");
  EXPECT_TRUE(std::filesystem::exists(new_path));
  std::filesystem::remove_all(dir);
}

TEST(ProblemSpecKey, OldV3SmootherlessSchemaIsACleanMiss) {
  // v3 keys predate the smoother choice dimension (ISSUE 4): their tables
  // carry no per-cell smoother and their trainer raced a different
  // candidate stream, so a v3 entry must never be loaded.  The current
  // prefix (plus the _sm token) guarantees the old filename simply never
  // matches: retrain, store beside the legacy file, leave it untouched.
  const auto dir = fresh_dir("pbmg_cc_v3schema");
  const TrainerOptions options = tiny_options();
  const std::string new_key = config_cache_key(options, "serial", "autotuned");
  EXPECT_EQ(new_key.rfind("v7_", 0), 0u);
  EXPECT_NE(new_key.find("_sm"), std::string::npos);
  // The exact v3 layout for tiny_options (see PR 3's config_cache.cpp):
  // v3_<strategy>_<profile>_<op>_<dist>_L<level>_m<rungs>_p<exp>_i<n>_s<seed>.
  const std::string old_key = "v3_autotuned_serial_poisson_unbiased_L3_m5_p9_i1_s99";
  ASSERT_NE(new_key, old_key);
  const auto old_path = dir / (old_key + ".json");
  const std::string old_content = handmade_config().to_json().dump(2) + "\n";
  write_text_file(old_path.string(), old_content);

  bool from_cache = true;
  const TunedConfig config =
      load_or_train(options, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), options.max_level);
  EXPECT_EQ(read_text_file(old_path.string()), old_content);
  EXPECT_TRUE(std::filesystem::exists(dir / (new_key + ".json")));
  std::filesystem::remove_all(dir);
}

TEST(ProblemSpecKey, OldV6BaselinelessSchemaIsACleanMiss) {
  // v6 keys predate the latency-baseline section (ISSUE 8): their
  // searched entries carry no "latency_baseline", so they cannot seed a
  // drift watcher.  The v7 prefix guarantees the old filename never
  // matches: retrain, store beside the legacy file, leave it untouched.
  const auto dir = fresh_dir("pbmg_cc_v6schema");
  const TrainerOptions options = tiny_options();
  const std::string new_key = config_cache_key(options, "serial", "autotuned");
  EXPECT_EQ(new_key.rfind("v7_", 0), 0u);
  // The exact v6 layout for tiny_options (see PR 7's config_cache.cpp):
  // v6_<strategy>_<profile>_<op>_<dist>_L<level>_m<rungs>_p<exp>_i<n>_
  // s<seed>_sm<smoothers>_co<coarsenings>.
  const std::string old_key =
      "v6_autotuned_serial_poisson_unbiased_L3_m5_p9_i1_s99_smzxyp_cora";
  ASSERT_NE(new_key, old_key);
  const auto old_path = dir / (old_key + ".json");
  const std::string old_content = handmade_config().to_json().dump(2) + "\n";
  write_text_file(old_path.string(), old_content);

  bool from_cache = true;
  const TunedConfig config =
      load_or_train(options, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), options.max_level);
  EXPECT_EQ(read_text_file(old_path.string()), old_content);
  EXPECT_TRUE(std::filesystem::exists(dir / (new_key + ".json")));
  std::filesystem::remove_all(dir);
}

TEST(ProblemSpecKey, OldV4CoarseninglessSchemaIsACleanMiss) {
  // v4 keys predate the coarsening choice dimension (ISSUE 5): their
  // tables carry no per-cell coarsening and their trainer never raced
  // Galerkin-RAP candidates, so a v4 entry must read as a clean miss.
  // The v5 prefix plus the new _co token guarantee the old filename
  // never matches: retrain, store beside the legacy file, leave it
  // untouched.
  const auto dir = fresh_dir("pbmg_cc_v4schema");
  const TrainerOptions options = tiny_options();
  const std::string new_key = config_cache_key(options, "serial", "autotuned");
  EXPECT_EQ(new_key.rfind("v7_", 0), 0u);
  EXPECT_NE(new_key.find("_co"), std::string::npos);
  // The exact v4 layout for tiny_options (see PR 4's config_cache.cpp):
  // v4_<strategy>_<profile>_<op>_<dist>_L<level>_m<rungs>_p<exp>_i<n>_
  // s<seed>_sm<smoothers>.
  const std::string old_key =
      "v4_autotuned_serial_poisson_unbiased_L3_m5_p9_i1_s99_smzxyp";
  ASSERT_NE(new_key, old_key);
  const auto old_path = dir / (old_key + ".json");
  const std::string old_content = handmade_config().to_json().dump(2) + "\n";
  write_text_file(old_path.string(), old_content);

  bool from_cache = true;
  const TunedConfig config =
      load_or_train(options, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), options.max_level);
  EXPECT_EQ(read_text_file(old_path.string()), old_content);
  EXPECT_TRUE(std::filesystem::exists(dir / (new_key + ".json")));
  std::filesystem::remove_all(dir);
}

TEST(ProblemSpecKey, OldV5KernelPolicylessSchemaIsACleanMiss) {
  // v5 keys predate the kernel-policy axes (packed stencil layout and
  // SIMD width): their searched profiles never raced the packed kernels,
  // so the timings behind every stored table are stale.  The current
  // prefix guarantees the old filename never matches: retrain, store
  // beside the legacy file, leave it untouched.
  const auto dir = fresh_dir("pbmg_cc_v5schema");
  const TrainerOptions options = tiny_options();
  const std::string new_key = config_cache_key(options, "serial", "autotuned");
  EXPECT_EQ(new_key.rfind("v7_", 0), 0u);
  // The exact v5 layout for tiny_options (see PR 5's config_cache.cpp):
  // v5_<strategy>_<profile>_<op>_<dist>_L<level>_m<rungs>_p<exp>_i<n>_
  // s<seed>_sm<smoothers>_co<coarsenings>.
  const std::string old_key =
      "v5_autotuned_serial_poisson_unbiased_L3_m5_p9_i1_s99_smzxyp_cora";
  ASSERT_NE(new_key, old_key);
  const auto old_path = dir / (old_key + ".json");
  const std::string old_content = handmade_config().to_json().dump(2) + "\n";
  write_text_file(old_path.string(), old_content);

  bool from_cache = true;
  const TunedConfig config =
      load_or_train(options, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(config.max_level(), options.max_level);
  EXPECT_EQ(read_text_file(old_path.string()), old_content);
  EXPECT_TRUE(std::filesystem::exists(dir / (new_key + ".json")));
  std::filesystem::remove_all(dir);
}

TEST(ProblemSpecKey, CoarseningListJoinsTheKey) {
  // Average-only training (the fig20 baseline arm) and the default
  // RAP-first space must never share tuned tables; the list's *order* is
  // keyed too, since measurement order drives budget pruning.
  const TrainerOptions base = tiny_options();
  TrainerOptions avg_only = tiny_options();
  avg_only.coarsenings = {grid::Coarsening::kAverage};
  EXPECT_NE(config_cache_key(base, "serial", "autotuned"),
            config_cache_key(avg_only, "serial", "autotuned"));
  TrainerOptions reordered = tiny_options();
  std::swap(reordered.coarsenings.front(), reordered.coarsenings.back());
  EXPECT_NE(config_cache_key(base, "serial", "autotuned"),
            config_cache_key(reordered, "serial", "autotuned"));
}

TEST(ProblemSpecKey, SmootherListJoinsTheKey) {
  // Point-only training (the fig19 baseline arm) and the default
  // line-enabled space must never share tuned tables; the list's *order*
  // is keyed too, since measurement order drives budget pruning.
  const TrainerOptions base = tiny_options();
  TrainerOptions point_only = tiny_options();
  point_only.smoothers = {solvers::RelaxKind::kSor};
  EXPECT_NE(config_cache_key(base, "serial", "autotuned"),
            config_cache_key(point_only, "serial", "autotuned"));
  TrainerOptions reordered = tiny_options();
  std::swap(reordered.smoothers.front(), reordered.smoothers.back());
  EXPECT_NE(config_cache_key(base, "serial", "autotuned"),
            config_cache_key(reordered, "serial", "autotuned"));
}

// ------------------------------------------------------------ round trip --

TEST(ConfigCacheIO, SaveLoadRoundTripEquality) {
  const TunedConfig config = handmade_config();
  const auto dir = fresh_dir("pbmg_cc_roundtrip");
  const auto path = dir / "config.json";
  config.save(path.string());
  const TunedConfig loaded = TunedConfig::load(path.string());
  EXPECT_EQ(loaded.to_json().dump(), config.to_json().dump());
  EXPECT_EQ(loaded.profile_name, config.profile_name);
  EXPECT_EQ(loaded.seed, config.seed);
  EXPECT_EQ(loaded.strategy, config.strategy);
  std::filesystem::remove_all(dir);
}

TEST(ConfigCacheIO, FmgTrainingIsPartOfTheKey) {
  // A V-only entry must not serve a request for FMG tables: its FMG cells
  // were never trained, so every FMG solve on it would throw.
  const auto dir = fresh_dir("pbmg_cc_fmgkey");
  const TrainerOptions v_only = tiny_options();
  ASSERT_FALSE(v_only.train_fmg);
  TrainerOptions with_fmg = tiny_options();
  with_fmg.train_fmg = true;
  EXPECT_NE(config_cache_key(v_only, "serial", "autotuned"),
            config_cache_key(with_fmg, "serial", "autotuned"));
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  EXPECT_NE(searched_config_cache_key(v_only, search_options),
            searched_config_cache_key(with_fmg, search_options));

  bool from_cache = true;
  (void)load_or_train(v_only, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  from_cache = true;
  const TunedConfig fmg =
      load_or_train(with_fmg, engine(), dir.string(), -1, &from_cache);
  EXPECT_FALSE(from_cache);
  for (int level = 2; level <= fmg.max_level(); ++level) {
    for (int i = 0; i < fmg.accuracy_count(); ++i) {
      EXPECT_TRUE(fmg.fmg_entry(level, i).trained)
          << "FMG cell (" << level << "," << i << ")";
    }
  }
  // Each entry stays a hit for its own request.
  (void)load_or_train(v_only, engine(), dir.string(), -1, &from_cache);
  EXPECT_TRUE(from_cache);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- corrupt cache --

class CorruptCacheTest : public ::testing::Test {
 protected:
  /// Plants `content` at the cache path load_or_train will consult, then
  /// verifies the call retrains (miss) and overwrites with a valid entry.
  void expect_miss_and_recover(const std::string& tag,
                               const std::string& content) {
    const auto dir = fresh_dir("pbmg_cc_corrupt_" + tag);
    const TrainerOptions options = tiny_options();
    const std::string key =
        config_cache_key(options, sched().profile().name, "autotuned");
    const auto path = dir / (key + ".json");
    write_text_file(path.string(), content);
    bool from_cache = true;
    const TunedConfig config = load_or_train(options, engine(),
                                             dir.string(), -1, &from_cache);
    EXPECT_FALSE(from_cache) << tag;
    EXPECT_EQ(config.max_level(), options.max_level) << tag;
    // The rewritten entry must now be a hit.
    const TunedConfig again = load_or_train(options, engine(),
                                             dir.string(), -1, &from_cache);
    EXPECT_TRUE(from_cache) << tag;
    EXPECT_EQ(again.to_json().dump(), config.to_json().dump()) << tag;
    std::filesystem::remove_all(dir);
  }
};

TEST_F(CorruptCacheTest, UnparseableText) {
  expect_miss_and_recover("garbage", "{this is not json");
}

TEST_F(CorruptCacheTest, TruncatedDocument) {
  const std::string full = handmade_config().to_json().dump(2);
  expect_miss_and_recover("truncated", full.substr(0, full.size() / 2));
}

TEST_F(CorruptCacheTest, WrongSchema) {
  expect_miss_and_recover("schema", "[1, 2, 3]\n");
}

TEST_F(CorruptCacheTest, UnrecognisedSmootherName) {
  // smoother_from_json defaults a *missing* key to point_rb, but an
  // unrecognised name — e.g. written by a future version whose smoother
  // set grew — must fail as a ConfigError that load_or_train treats as a
  // clean miss, never as an exception escaping to the caller.
  Json doc = handmade_config().to_json();
  Json v_levels = doc.at("multigrid_v");
  v_levels.as_array()[0].as_array()[0].set("smoother",
                                           std::string("warp_drive"));
  doc.set("multigrid_v", std::move(v_levels));
  expect_miss_and_recover("badsmoother", doc.dump(2) + "\n");
}

TEST_F(CorruptCacheTest, UnrecognisedCoarseningName) {
  // Same contract for the coarsening field introduced with Galerkin RAP.
  Json doc = handmade_config().to_json();
  Json v_levels = doc.at("multigrid_v");
  v_levels.as_array()[0].as_array()[0].set("coarsening",
                                           std::string("octree"));
  doc.set("multigrid_v", std::move(v_levels));
  expect_miss_and_recover("badcoarsening", doc.dump(2) + "\n");
}

/// `config` as JSON with field `key` of one cell of `table`
/// ("multigrid_v" or "full_multigrid") replaced.
Json with_cell(const TunedConfig& config, const char* table, int level,
               int accuracy_index, const char* key, Json value) {
  Json doc = config.to_json();
  Json levels = doc.at(table);
  levels.as_array()[static_cast<std::size_t>(level - 1)]
      .as_array()[static_cast<std::size_t>(accuracy_index)]
      .set(key, std::move(value));
  doc.set(table, std::move(levels));
  return doc;
}

Json with_iterations(const TunedConfig& config, const char* table, int level,
                     int accuracy_index, int iterations) {
  return with_cell(config, table, level, accuracy_index, "iterations",
                   Json(iterations));
}

TEST(ConfigCacheIO, IterationCountsTheTrainerCannotWriteAreRejected) {
  // A V cell that runs no sweep or body — or any negative count — used to
  // load and then solve as a silent no-op that reported convergence.  V
  // sor and recurse cells need >= 1 iteration; FMG non-direct cells may
  // keep 0 (the estimate sufficed) but not fewer.
  const TunedConfig config = handmade_config();
  ASSERT_EQ(config.v_entry(3, 2).choice.kind, VKind::kRecurse);
  ASSERT_EQ(config.v_entry(3, 1).choice.kind, VKind::kIterSor);
  for (const int bad : {-3, 0}) {
    EXPECT_THROW(
        TunedConfig::from_json(with_iterations(config, "multigrid_v", 3, 2,
                                               bad)),
        ConfigError)
        << "recurse " << bad;
    EXPECT_THROW(
        TunedConfig::from_json(with_iterations(config, "multigrid_v", 3, 1,
                                               bad)),
        ConfigError)
        << "sor " << bad;
  }
  EXPECT_THROW(TunedConfig::from_json(
                   with_iterations(config, "full_multigrid", 3, 2, -3)),
               ConfigError);
  const TunedConfig estimate_only = TunedConfig::from_json(
      with_iterations(config, "full_multigrid", 3, 2, 0));
  EXPECT_EQ(estimate_only.fmg_entry(3, 2).choice.iterations, 0);
}

TEST_F(CorruptCacheTest, NegativeIterationCount) {
  // The cache loader must read such an entry as a clean miss and retrain.
  expect_miss_and_recover(
      "negiterations",
      with_iterations(handmade_config(), "multigrid_v", 3, 2, -3).dump(2) +
          "\n");
}

TEST(ConfigCacheIO, JacobiCellsAreRejected) {
  // Jacobi is no tunable smoother: the trainer never writes it, and the
  // executor relaxes every smoother that is not a line variant with point
  // SOR, so a table naming it used to load and run SOR under its name.
  const TunedConfig config = handmade_config();
  ASSERT_EQ(config.v_entry(3, 2).choice.kind, VKind::kRecurse);
  ASSERT_EQ(config.fmg_entry(3, 2).choice.kind, FmgKind::kEstimateThenRecurse);
  for (const char* table : {"multigrid_v", "full_multigrid"}) {
    EXPECT_THROW(TunedConfig::from_json(
                     with_cell(config, table, 3, 2, "smoother", "jacobi")),
                 ConfigError)
        << table;
  }
}

TEST_F(CorruptCacheTest, JacobiSmoother) {
  // The cache loader must read such an entry as a clean miss and retrain.
  expect_miss_and_recover(
      "jacobi",
      with_cell(handmade_config(), "multigrid_v", 3, 2, "smoother", "jacobi")
              .dump(2) +
          "\n");
}

TEST_F(CorruptCacheTest, OutOfRangeNumberLiteral) {
  // std::stod raises std::out_of_range (not a pbmg::Error) for this
  // literal; the loader must still treat it as a miss.
  expect_miss_and_recover(
      "overflow",
      "{\"format\": \"pbmg-tuned-config-v1\", \"max_level\": 3,"
      " \"accuracies\": [1e400]}");
}

// -------------------------------------------------- malformed documents --
// A document that fails validation is a ConfigError, the type every cache
// loader reads as a clean miss; InvalidArgument is for a caller's bad
// argument.  No integer field wraps into range: 2³² + k used to read as k.

constexpr std::int64_t kTwoTo32 = std::int64_t{1} << 32;

Json with_field(Json doc, const char* key, Json value) {
  doc.set(key, std::move(value));
  return doc;
}

Json ladder(std::initializer_list<double> accuracies) {
  Json out = Json::array();
  for (const double a : accuracies) out.push_back(a);
  return out;
}

TEST(MalformedDocuments, TableLaddersAndLevelsTheConstructorRejects) {
  // TunedConfig's constructor checks these with PBMG_CHECK, which used to
  // escape from_json as InvalidArgument.
  const Json doc = handmade_config().to_json();
  const std::pair<const char*, Json> cases[] = {
      {"max_level 21", with_field(doc, "max_level", 21)},
      {"max_level 0", with_field(doc, "max_level", 0)},
      {"empty ladder", with_field(doc, "accuracies", Json::array())},
      {"descending ladder",
       with_field(doc, "accuracies", ladder({1e9, 1e7, 1e5, 1e3, 1e1}))},
      {"ladder from 0.5",
       with_field(doc, "accuracies", ladder({0.5, 1e3, 1e5, 1e7, 1e9}))}};
  for (const auto& [what, bad] : cases) {
    EXPECT_THROW(TunedConfig::from_json(bad), ConfigError) << what;
  }
}

TEST(MalformedDocuments, TableIntegersOutsideIntAreRejected) {
  // A level-2 table whose max_level reads 2³² + 2 used to load as a
  // level-2 table, and a cell's counts and indices wrapped the same way.
  const Json level2 = TunedConfig(paper_accuracies(), 2).to_json();
  EXPECT_THROW(TunedConfig::from_json(
                   with_field(level2, "max_level", kTwoTo32 + 2)),
               ConfigError);
  const TunedConfig config = handmade_config();
  ASSERT_EQ(config.v_entry(3, 2).choice.kind, VKind::kRecurse);
  ASSERT_EQ(config.v_entry(3, 1).choice.kind, VKind::kIterSor);
  const std::pair<const char*, Json> cases[] = {
      {"V sor iterations",
       with_cell(config, "multigrid_v", 3, 1, "iterations", kTwoTo32 + 2)},
      {"V recurse sub_accuracy",
       with_cell(config, "multigrid_v", 3, 2, "sub_accuracy", kTwoTo32 + 2)},
      {"FMG iterations",
       with_cell(config, "full_multigrid", 3, 2, "iterations", kTwoTo32 + 2)},
      {"FMG estimate_accuracy",
       with_cell(config, "full_multigrid", 3, 2, "estimate_accuracy",
                 kTwoTo32 + 2)},
      {"FMG solve_accuracy",
       with_cell(config, "full_multigrid", 3, 2, "solve_accuracy",
                 kTwoTo32 + 2)}};
  for (const auto& [what, bad] : cases) {
    EXPECT_THROW(TunedConfig::from_json(bad), ConfigError) << what;
  }
}

TEST(MalformedDocuments, ProfileIntegersOutsideIntAreRejected) {
  // threads 2³² + 4 used to read as 4.
  const Json doc = rt::profile_to_json(rt::serial_profile());
  for (const char* key : {"threads", "grain_rows", "spawn_overhead_ns"}) {
    EXPECT_THROW(rt::profile_from_json(with_field(doc, key, kTwoTo32 + 4)),
                 ConfigError)
        << key;
  }
  // An int that asks for more workers than any host runs: the profile is
  // only parsed here, never handed to a scheduler.
  ASSERT_NO_THROW(rt::profile_from_json(
      with_field(doc, "threads", std::int64_t{rt::kMaxProfileThreads})));
  for (const std::int64_t threads :
       {std::int64_t{rt::kMaxProfileThreads} + 1,
        std::int64_t{2147483647}}) {
    EXPECT_THROW(rt::profile_from_json(with_field(doc, "threads", threads)),
                 ConfigError)
        << threads;
  }
}

TEST(MalformedDocuments, SearchedProfileIntegersOutsideIntAreRejected) {
  // simd_width 2³² + 4 used to read as 4 and pass validation.
  search::SearchedProfile searched;
  searched.profile = rt::serial_profile();
  const Json doc = searched.to_json();
  ASSERT_NO_THROW(search::SearchedProfile::from_json(doc));
  for (const char* key :
       {"simd_width", "evaluations", "generations", "population"}) {
    EXPECT_THROW(
        search::SearchedProfile::from_json(with_field(doc, key, kTwoTo32 + 4)),
        ConfigError)
        << key;
  }
}

TEST(MalformedDocuments, DriftBaselineIntegersOutsideTheirRangeAreRejected) {
  // An entry's n and accuracy_index wrapped into range.
  Json entry = Json::object();
  entry.set("n", 33);
  entry.set("accuracy_index", 2);
  entry.set("count", 0);
  entry.set("sum", 0.0);
  entry.set("min", 0.0);
  entry.set("max", 0.0);
  entry.set("buckets", Json::array());
  const auto baseline = [](Json e) {
    Json entries = Json::array();
    entries.push_back(std::move(e));
    return with_field(Json::object(), "entries", std::move(entries));
  };
  ASSERT_EQ(obs::LatencyBaseline::from_json(baseline(entry)).size(), 1u);
  for (const char* key : {"n", "accuracy_index"}) {
    EXPECT_THROW(obs::LatencyBaseline::from_json(
                     baseline(with_field(entry, key, kTwoTo32 + 33))),
                 ConfigError)
        << key;
  }
  // Bucket counts summed to the count by going negative, or by wrapping
  // past int64 (four buckets of 2⁶² sum to 0 mod 2⁶⁴).
  const std::int64_t quarter = std::int64_t{1} << 62;
  const std::pair<const char*, Json> buckets[] = {
      {"negative bucket", Json(Json::Array{Json(-1), Json(1)})},
      {"wrapping sum",
       Json(Json::Array{Json(quarter), Json(quarter), Json(quarter),
                        Json(quarter)})}};
  for (const auto& [what, counts] : buckets) {
    EXPECT_THROW(obs::LatencyBaseline::from_json(
                     baseline(with_field(entry, "buckets", counts))),
                 ConfigError)
        << what;
  }
}

/// A node of a parsed document, and the object holding it under `key`
/// (null for the root and for array elements).
struct Site {
  Json* node;
  Json* parent;
  std::string key;
};

void collect_sites(Json& node, Json* parent, const std::string& key,
                   std::vector<Site>& out) {
  out.push_back({&node, parent, key});
  if (node.is_array()) {
    for (Json& child : node.as_array()) collect_sites(child, nullptr, "", out);
  } else if (node.is_object()) {
    for (auto& [k, child] : node.as_object()) {
      collect_sites(child, &node, k, out);
    }
  }
}

/// `text` after one seeded mutation: an integer replaced by 0, −1, 2³¹,
/// 2³² + k or 1e308, a string replaced by a number, a key deleted, or the
/// text truncated.  `what` describes it.
std::string mutate(const std::string& text, Rng& rng, std::string& what) {
  const auto pick = [&](std::size_t count) {
    return static_cast<std::size_t>(rng.uniform_index(count));
  };
  const int kind = static_cast<int>(pick(4));
  if (kind == 3) {
    const std::size_t cut = pick(text.size());
    what = "truncated at " + std::to_string(cut);
    return text.substr(0, cut);
  }
  Json doc = Json::parse(text);
  std::vector<Site> sites;
  collect_sites(doc, nullptr, "", sites);
  std::vector<Site> eligible;
  for (const Site& site : sites) {
    const Json& v = *site.node;
    const bool integer =
        v.is_number() && std::floor(v.as_double()) == v.as_double();
    if ((kind == 0 && integer) || (kind == 1 && v.is_string()) ||
        (kind == 2 && site.parent != nullptr)) {
      eligible.push_back(site);
    }
  }
  const Site& site = eligible[pick(eligible.size())];
  if (kind == 0) {
    const Json values[] = {Json(0), Json(-1), Json(std::int64_t{1} << 31),
                           Json(kTwoTo32 + static_cast<std::int64_t>(pick(8))),
                           Json(1e308)};
    *site.node = values[pick(5)];
    what = "integer at '" + site.key + "' -> " + site.node->dump();
  } else if (kind == 1) {
    *site.node = pick(2) == 0 ? Json(7) : Json(2.5);
    what = "string at '" + site.key + "' -> " + site.node->dump();
  } else {
    what = "deleted '" + site.key + "'";
    site.parent->as_object().erase(site.key);
  }
  return doc.dump(2);
}

TEST(MalformedDocuments, SeededMutationsLoadOrFailAsConfigError) {
  // 500 single mutations, in turn, of a saved table, a saved searched
  // profile, and a whole searched-cache entry as load_or_search_train
  // writes it (the table with its searched_profile and a
  // latency_baseline holding V and FMG entries), read through that
  // loader's three readers in its order: each mutated document loads or
  // throws ConfigError, and nothing else.
  search::SearchedProfile searched;
  searched.profile = rt::serial_profile();
  searched.profile.name = "serial+searched";
  searched.relax.kernels = {grid::StencilLayout::kPacked, 4};
  searched.evaluations = 12;
  searched.seed = 41;
  searched.generations = 3;
  searched.population = 6;
  obs::LatencyBaseline baseline;
  for (const bool fmg : {false, true}) {
    obs::Histogram latencies;
    for (const double seconds : {1e-4, 2e-4, 3e-4}) latencies.record(seconds);
    baseline.set(17, 2, latencies.snapshot(), fmg);
  }
  Json entry = handmade_config().to_json();
  entry.set("searched_profile", searched.to_json());
  entry.set("latency_baseline", baseline.to_json());
  const std::string table = handmade_config().to_json().dump(2) + "\n";
  const std::string profile = searched.to_json().dump(2) + "\n";
  const std::string cached = entry.dump(2) + "\n";
  const char* const names[] = {"table", "searched profile", "cache entry"};
  Rng rng(0xC0DE'CAFE);
  int loaded = 0;
  int rejected = 0;
  for (int m = 0; m < 500; ++m) {
    const int kind = m % 3;
    std::string what;
    const std::string text =
        mutate(kind == 0 ? table : kind == 1 ? profile : cached, rng, what);
    try {
      const Json doc = Json::parse(text);
      if (kind == 0) {
        (void)TunedConfig::from_json(doc);
      } else if (kind == 1) {
        (void)search::SearchedProfile::from_json(doc);
      } else {
        (void)TunedConfig::from_json(doc);
        (void)search::SearchedProfile::from_json(doc.at("searched_profile"));
        (void)obs::LatencyBaseline::from_json(doc.at("latency_baseline"));
      }
      ++loaded;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << names[kind] << ", " << what << ": " << e.what();
    }
  }
  // Both outcomes occur, so the mutations reach fields that matter and
  // fields that do not.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------- searched profiles --

TEST(SearchedConfigCache, KeyIncludesSearchSeedAndBudget) {
  const TrainerOptions options = tiny_options();
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  const std::string reference =
      searched_config_cache_key(options, search_options);

  search::ProfileSearchOptions changed = search_options;
  changed.seed += 1;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.population.generations += 1;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.population.population += 1;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.level += 1;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.distribution = InputDistribution::kBiased;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.op_family = OperatorFamily::kAnisotropic;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.relax_only = true;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.target_accuracy *= 2;  // same decade, different target
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  changed = search_options;
  changed.max_cycles += 1;
  EXPECT_NE(searched_config_cache_key(options, changed), reference);

  // Offspring mixes with equal totals consume the RNG differently and must
  // not collide (mutants×population + immigrants would both be 9 here).
  search::ProfileSearchOptions mix_a = search_options;
  mix_a.population.population = 4;
  mix_a.population.mutants_per_elite = 2;
  mix_a.population.immigrants = 1;
  search::ProfileSearchOptions mix_b = search_options;
  mix_b.population.population = 4;
  mix_b.population.mutants_per_elite = 1;
  mix_b.population.immigrants = 5;
  EXPECT_NE(searched_config_cache_key(options, mix_a),
            searched_config_cache_key(options, mix_b));

  // Trainer-side fields still matter too.
  TrainerOptions trainer_changed = tiny_options();
  trainer_changed.seed += 1;
  EXPECT_NE(searched_config_cache_key(trainer_changed, search_options),
            reference);
}

TEST(SearchedConfigCache, SearchTrainRoundTripsThroughTheCache) {
  const auto dir = fresh_dir("pbmg_cc_searched");
  const TrainerOptions options = tiny_options();
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  search_options.level = 3;
  search_options.instances = 1;
  search_options.seed = 31;
  search_options.population.population = 2;
  search_options.population.mutants_per_elite = 1;
  search_options.population.immigrants = 1;
  search_options.population.generations = 1;

  bool from_cache = true;
  const SearchTrainResult first = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(first.searched.profile.name, "serial+searched");
  EXPECT_EQ(first.config.max_level(), options.max_level);

  const SearchTrainResult second = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(second.config.to_json().dump(), first.config.to_json().dump());
  EXPECT_EQ(second.searched.to_json().dump(), first.searched.to_json().dump());

  // A different search budget is a different artifact.
  search::ProfileSearchOptions bigger = search_options;
  bigger.population.generations = 2;
  EXPECT_NE(searched_config_cache_key(options, bigger),
            searched_config_cache_key(options, search_options));
  std::filesystem::remove_all(dir);
}

TEST(SearchedConfigCache, CorruptedTunablesFallBackToRetraining) {
  // Regression for the load_or_train / load_or_search_train asymmetry:
  // the searched path deserializes relaxation weights that are later
  // installed straight into an Engine, whose constructor throws for
  // out-of-range values.  A cache entry whose tunables were corrupted
  // (here: recurse_omega = 5, far outside SOR's (0,2) stability interval)
  // must therefore be validated with validate_relax_tunables at load time
  // and treated as a miss — re-search, retrain, overwrite — instead of
  // detonating at Engine construction.
  const auto dir = fresh_dir("pbmg_cc_badtunables");
  const TrainerOptions options = tiny_options();
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  search_options.level = 3;
  search_options.instances = 1;
  search_options.seed = 41;
  search_options.population.population = 2;
  search_options.population.mutants_per_elite = 1;
  search_options.population.immigrants = 1;
  search_options.population.generations = 1;

  bool from_cache = true;
  const SearchTrainResult first = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  ASSERT_FALSE(from_cache);

  // Corrupt only the tunables; everything else stays schema-valid.
  const auto path =
      dir / (searched_config_cache_key(options, search_options) + ".json");
  ASSERT_TRUE(std::filesystem::exists(path));
  Json doc = Json::parse(read_text_file(path.string()));
  Json searched = doc.at("searched_profile");
  searched.set("recurse_omega", 5.0);
  doc.set("searched_profile", std::move(searched));
  write_text_file(path.string(), doc.dump(2) + "\n");

  const SearchTrainResult recovered = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  EXPECT_FALSE(from_cache);  // corrupt entry read as a miss, not a crash
  EXPECT_NO_THROW(solvers::validate_relax_tunables(recovered.searched.relax));
  // An Engine accepts the recovered parameters (the whole point of
  // validating before installing).
  EXPECT_NO_THROW(
      Engine(recovered.searched.profile, recovered.searched.relax));

  // The overwritten entry is valid again and hits.
  const SearchTrainResult again = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(again.searched.to_json().dump(),
            recovered.searched.to_json().dump());
  std::filesystem::remove_all(dir);
}

TEST(SearchedConfigCache, UnrecognisedLayoutNameIsACleanMiss) {
  // A searched-profile entry whose kernel layout carries a name this
  // version does not know (e.g. written by a future version) must surface
  // as a clean cache miss — re-search, retrain, overwrite — and never as
  // an exception escaping load_or_search_train.
  const auto dir = fresh_dir("pbmg_cc_badlayoutname");
  const TrainerOptions options = tiny_options();
  search::ProfileSearchOptions search_options;
  search_options.base = rt::serial_profile();
  search_options.level = 3;
  search_options.instances = 1;
  search_options.seed = 43;
  search_options.population.population = 2;
  search_options.population.mutants_per_elite = 1;
  search_options.population.immigrants = 1;
  search_options.population.generations = 1;

  bool from_cache = true;
  const SearchTrainResult first = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  ASSERT_FALSE(from_cache);

  const auto path =
      dir / (searched_config_cache_key(options, search_options) + ".json");
  ASSERT_TRUE(std::filesystem::exists(path));
  const auto corrupt_field = [&](const std::string& key,
                                 const std::string& value) {
    Json doc = Json::parse(read_text_file(path.string()));
    Json searched = doc.at("searched_profile");
    searched.set(key, value);
    doc.set("searched_profile", std::move(searched));
    write_text_file(path.string(), doc.dump(2) + "\n");
  };

  corrupt_field("layout", "warp_drive");
  SearchTrainResult recovered;
  EXPECT_NO_THROW(recovered = load_or_search_train(
                      options, search_options, dir.string(), &from_cache));
  EXPECT_FALSE(from_cache);
  EXPECT_NO_THROW(solvers::validate_relax_tunables(recovered.searched.relax));

  const SearchTrainResult again = load_or_search_train(
      options, search_options, dir.string(), &from_cache);
  EXPECT_TRUE(from_cache);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pbmg::tune
