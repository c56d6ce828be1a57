#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "tune/trainer.h"

namespace perfbench {

namespace {

/// The pinned tables: family, highest level, whether the FMG table is
/// trained, and whether the serving engine runs the packed layout.
struct PinnedTable {
  OperatorFamily family;
  int level;
  bool fmg;
  bool packed;
};

constexpr PinnedTable kPinned[] = {
    {OperatorFamily::kPoisson, 10, true, false},        // poisson-large
    {OperatorFamily::kJumpCoefficient, 9, false, true},  // varcoef, small
    {OperatorFamily::kAnisoTheta45, 9, false, true},     // varcoef routing
};

std::string table_path(const Options& options, OperatorFamily family) {
  return options.tables_dir + "/" + to_string(family) + ".json";
}

}  // namespace

tune::TunedConfig load_table(const Options& options, OperatorFamily family,
                             int level_needed) {
  const std::string path = table_path(options, family);
  tune::TunedConfig config;
  try {
    config = tune::TunedConfig::load(path);
  } catch (const std::exception& e) {
    throw std::runtime_error(
        "pinned table " + path + " no longer loads (" + e.what() +
        "); regenerate it with `python3 perfbench/run.py "
        "--regenerate-tables` — the benchmark never retrains silently");
  }
  if (config.op_family != to_string(family)) {
    throw std::runtime_error("pinned table " + path + " is for family '" +
                             config.op_family + "', expected '" +
                             to_string(family) + "'");
  }
  if (config.max_level() < level_needed) {
    throw std::runtime_error(
        "pinned table " + path + " covers levels up to " +
        std::to_string(config.max_level()) + " but the workload needs level " +
        std::to_string(level_needed) +
        "; regenerate with `python3 perfbench/run.py --regenerate-tables`");
  }
  return config;
}

int regenerate_tables(const Options& options) {
  const int threads = worker_count();
  std::string provenance = "{\n  \"commit\": \"" + options.commit +
                           "\",\n  \"workers\": " + std::to_string(threads) +
                           ",\n  \"tables\": [\n";
  bool first = true;
  for (const PinnedTable& pinned : kPinned) {
    const auto engine = make_engine(threads, pinned.packed);
    tune::TrainerOptions trainer;
    trainer.max_level = pinned.level;
    trainer.op_family = pinned.family;
    trainer.train_fmg = pinned.fmg;
    trainer.log = [](const std::string& line) {
      std::fprintf(stderr, "  [train] %s\n", line.c_str());
    };
    std::fprintf(stderr, "perfbench: training %s to level %d ...\n",
                 to_string(pinned.family).c_str(), pinned.level);
    const double t0 = now_s();
    const tune::TunedConfig config = tune::Trainer(trainer, *engine).train();
    const double seconds = now_s() - t0;
    config.save(table_path(options, pinned.family));
    char entry[512];
    std::snprintf(
        entry, sizeof entry,
        "%s    {\"family\": \"%s\", \"file\": \"%s.json\", \"level\": %d, "
        "\"fmg\": %s, \"profile\": \"%s\", \"workers\": %d, "
        "\"kernel_layout\": \"%s\", \"distribution\": \"unbiased\", "
        "\"seed\": %llu, \"train_seconds\": %.1f}",
        first ? "" : ",\n", to_string(pinned.family).c_str(),
        to_string(pinned.family).c_str(), pinned.level,
        pinned.fmg ? "true" : "false", engine->profile().name.c_str(), threads,
        pinned.packed ? "packed" : "legacy",
        static_cast<unsigned long long>(trainer.seed), seconds);
    provenance += entry;
    first = false;
    std::fprintf(stderr, "perfbench: %s trained in %.1f s\n",
                 to_string(pinned.family).c_str(), seconds);
  }
  provenance += "\n  ]\n}\n";
  std::ofstream out(options.tables_dir + "/PROVENANCE.json");
  out << provenance;
  return out ? 0 : 1;
}

}  // namespace perfbench
