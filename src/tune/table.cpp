#include "tune/table.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "grid/level.h"
#include "support/error.h"

namespace pbmg::tune {

namespace {

const char* v_kind_name(VKind kind) {
  switch (kind) {
    case VKind::kDirect: return "direct";
    case VKind::kIterSor: return "sor";
    case VKind::kRecurse: return "recurse";
  }
  throw InvalidArgument("invalid VKind");
}

VKind parse_v_kind(const std::string& name) {
  if (name == "direct") return VKind::kDirect;
  if (name == "sor") return VKind::kIterSor;
  if (name == "recurse") return VKind::kRecurse;
  throw ConfigError("unknown V choice kind '" + name + "'");
}

const char* fmg_kind_name(FmgKind kind) {
  switch (kind) {
    case FmgKind::kDirect: return "direct";
    case FmgKind::kEstimateThenSor: return "estimate+sor";
    case FmgKind::kEstimateThenRecurse: return "estimate+recurse";
  }
  throw InvalidArgument("invalid FmgKind");
}

FmgKind parse_fmg_kind(const std::string& name) {
  if (name == "direct") return FmgKind::kDirect;
  if (name == "estimate+sor") return FmgKind::kEstimateThenSor;
  if (name == "estimate+recurse") return FmgKind::kEstimateThenRecurse;
  throw ConfigError("unknown FMG choice kind '" + name + "'");
}

/// JSON cannot represent infinities; exact solves report infinite accuracy,
/// which we clamp to a huge finite sentinel for serialization.
double finite_cap(double v) {
  if (std::isnan(v)) return 0.0;
  return std::isfinite(v) ? v : 1e300;
}

/// Parses a serialized smoother name; a missing key (configs written
/// before the line-smoother era) reads as the historical point SOR.  The
/// cache key's v3 → v4 bump keeps stale *cache* entries from being loaded
/// at all; this default is for explicitly saved config files.  An
/// *unrecognised* name (e.g. from a future-version file) surfaces as
/// ConfigError, which every cache loader treats as a clean miss.
solvers::RelaxKind smoother_from_json(const Json& j) {
  const std::string name = j.get("smoother", std::string("point_rb"));
  try {
    return solvers::parse_relax_kind(name);
  } catch (const InvalidArgument& e) {
    throw ConfigError(std::string("tuned-config: ") + e.what());
  }
}

/// Same contract for the coarsening field: missing reads as the legacy
/// averaged ladder (configs written before Galerkin RAP existed), an
/// unrecognised name is a ConfigError / clean cache miss.
grid::Coarsening coarsening_from_json(const Json& j) {
  const std::string name = j.get("coarsening", std::string("avg"));
  try {
    return grid::parse_coarsening(name);
  } catch (const InvalidArgument& e) {
    throw ConfigError(std::string("tuned-config: ") + e.what());
  }
}

Json v_entry_to_json(const VEntry& e) {
  Json j = Json::object();
  j.set("kind", v_kind_name(e.choice.kind));
  j.set("sub_accuracy", e.choice.sub_accuracy);
  j.set("iterations", e.choice.iterations);
  j.set("smoother", solvers::to_string(e.choice.smoother));
  j.set("coarsening", grid::to_string(e.choice.coarsening));
  j.set("expected_time", finite_cap(e.expected_time));
  j.set("measured_accuracy", finite_cap(e.measured_accuracy));
  j.set("trained", e.trained);
  return j;
}

VEntry v_entry_from_json(const Json& j) {
  VEntry e;
  e.choice.kind = parse_v_kind(j.at("kind").as_string());
  e.choice.sub_accuracy = j.at("sub_accuracy").as_int32();
  e.choice.iterations = j.at("iterations").as_int32();
  e.choice.smoother = smoother_from_json(j);
  e.choice.coarsening = coarsening_from_json(j);
  e.expected_time = j.at("expected_time").as_double();
  e.measured_accuracy = j.at("measured_accuracy").as_double();
  e.trained = j.at("trained").as_bool();
  return e;
}

Json fmg_entry_to_json(const FmgEntry& e) {
  Json j = Json::object();
  j.set("kind", fmg_kind_name(e.choice.kind));
  j.set("estimate_accuracy", e.choice.estimate_accuracy);
  j.set("solve_accuracy", e.choice.solve_accuracy);
  j.set("iterations", e.choice.iterations);
  j.set("smoother", solvers::to_string(e.choice.smoother));
  j.set("coarsening", grid::to_string(e.choice.coarsening));
  j.set("expected_time", finite_cap(e.expected_time));
  j.set("measured_accuracy", finite_cap(e.measured_accuracy));
  j.set("trained", e.trained);
  return j;
}

FmgEntry fmg_entry_from_json(const Json& j) {
  FmgEntry e;
  e.choice.kind = parse_fmg_kind(j.at("kind").as_string());
  e.choice.estimate_accuracy = j.at("estimate_accuracy").as_int32();
  e.choice.solve_accuracy = j.at("solve_accuracy").as_int32();
  e.choice.iterations = j.at("iterations").as_int32();
  e.choice.smoother = smoother_from_json(j);
  e.choice.coarsening = coarsening_from_json(j);
  e.expected_time = j.at("expected_time").as_double();
  e.measured_accuracy = j.at("measured_accuracy").as_double();
  e.trained = j.at("trained").as_bool();
  return e;
}

}  // namespace

TunedConfig::TunedConfig(std::vector<double> accuracies, int max_level)
    : accuracies_(std::move(accuracies)), max_level_(max_level) {
  PBMG_CHECK(!accuracies_.empty(), "TunedConfig: empty accuracy ladder");
  for (std::size_t i = 1; i < accuracies_.size(); ++i) {
    PBMG_CHECK(accuracies_[i] > accuracies_[i - 1],
               "TunedConfig: accuracies must be strictly ascending");
  }
  PBMG_CHECK(accuracies_.front() > 1.0,
             "TunedConfig: accuracy levels must exceed 1 (no-op ratio)");
  PBMG_CHECK(max_level_ >= 1 && max_level_ <= 20,
             "TunedConfig: max_level must be in [1, 20]");
  v_.assign(static_cast<std::size_t>(max_level_) + 1,
            std::vector<VEntry>(accuracies_.size()));
  fmg_.assign(static_cast<std::size_t>(max_level_) + 1,
              std::vector<FmgEntry>(accuracies_.size()));
  // Level 1 (N = 3) is the base case: solved directly at every accuracy.
  for (std::size_t i = 0; i < accuracies_.size(); ++i) {
    VEntry& ve = v_[1][i];
    ve.choice.kind = VKind::kDirect;
    ve.trained = true;
    ve.measured_accuracy = std::numeric_limits<double>::infinity();
    FmgEntry& fe = fmg_[1][i];
    fe.choice.kind = FmgKind::kDirect;
    fe.trained = true;
    fe.measured_accuracy = std::numeric_limits<double>::infinity();
  }
}

int TunedConfig::accuracy_index(double accuracy) const {
  for (std::size_t i = 0; i < accuracies_.size(); ++i) {
    if (std::abs(std::log10(accuracies_[i]) - std::log10(accuracy)) < 1e-9) {
      return static_cast<int>(i);
    }
  }
  throw InvalidArgument("accuracy " + std::to_string(accuracy) +
                        " is not in this config's ladder");
}

void TunedConfig::check_cell(int level, int accuracy_index) const {
  PBMG_CHECK(level >= 1 && level <= max_level_,
             "TunedConfig: level out of range");
  PBMG_CHECK(accuracy_index >= 0 &&
                 accuracy_index < static_cast<int>(accuracies_.size()),
             "TunedConfig: accuracy index out of range");
}

VEntry& TunedConfig::v_entry(int level, int accuracy_index) {
  check_cell(level, accuracy_index);
  return v_[static_cast<std::size_t>(level)]
           [static_cast<std::size_t>(accuracy_index)];
}

const VEntry& TunedConfig::v_entry(int level, int accuracy_index) const {
  check_cell(level, accuracy_index);
  return v_[static_cast<std::size_t>(level)]
           [static_cast<std::size_t>(accuracy_index)];
}

FmgEntry& TunedConfig::fmg_entry(int level, int accuracy_index) {
  check_cell(level, accuracy_index);
  return fmg_[static_cast<std::size_t>(level)]
             [static_cast<std::size_t>(accuracy_index)];
}

const FmgEntry& TunedConfig::fmg_entry(int level, int accuracy_index) const {
  check_cell(level, accuracy_index);
  return fmg_[static_cast<std::size_t>(level)]
             [static_cast<std::size_t>(accuracy_index)];
}

Json TunedConfig::to_json() const {
  Json root = Json::object();
  root.set("format", "pbmg-tuned-config-v1");
  Json acc = Json::array();
  for (double a : accuracies_) acc.push_back(a);
  root.set("accuracies", std::move(acc));
  root.set("max_level", max_level_);
  root.set("profile", profile_name);
  root.set("distribution", distribution);
  root.set("op_family", op_family);
  root.set("seed", static_cast<std::int64_t>(seed));
  root.set("strategy", strategy);
  Json v_levels = Json::array();
  Json fmg_levels = Json::array();
  for (int level = 1; level <= max_level_; ++level) {
    Json v_row = Json::array();
    Json fmg_row = Json::array();
    for (int i = 0; i < accuracy_count(); ++i) {
      v_row.push_back(v_entry_to_json(v_entry(level, i)));
      fmg_row.push_back(fmg_entry_to_json(fmg_entry(level, i)));
    }
    v_levels.push_back(std::move(v_row));
    fmg_levels.push_back(std::move(fmg_row));
  }
  root.set("multigrid_v", std::move(v_levels));
  root.set("full_multigrid", std::move(fmg_levels));
  return root;
}

TunedConfig TunedConfig::from_json(const Json& json) {
  const std::string format = json.get("format", std::string());
  if (format != "pbmg-tuned-config-v1") {
    throw ConfigError("unsupported tuned-config format '" + format + "'");
  }
  std::vector<double> accuracies;
  for (const Json& a : json.at("accuracies").as_array()) {
    accuracies.push_back(a.as_double());
  }
  const int max_level = json.at("max_level").as_int32();
  // The constructor checks the ladder and max_level; a document that
  // fails them is malformed, not a caller's bad argument.
  TunedConfig config = [&] {
    try {
      return TunedConfig(std::move(accuracies), max_level);
    } catch (const InvalidArgument& e) {
      throw ConfigError(std::string("tuned-config: ") + e.what());
    }
  }();
  config.profile_name = json.get("profile", std::string());
  config.distribution = json.get("distribution", std::string());
  // Configs written before operator families existed are Poisson by
  // definition (the cache key's version bump keeps them from being loaded
  // for any other operator).
  config.op_family = json.get("op_family", std::string("poisson"));
  config.seed = static_cast<std::uint64_t>(json.get("seed", std::int64_t{0}));
  config.strategy = json.get("strategy", std::string("autotuned"));
  const auto& v_levels = json.at("multigrid_v").as_array();
  const auto& fmg_levels = json.at("full_multigrid").as_array();
  if (static_cast<int>(v_levels.size()) != max_level ||
      static_cast<int>(fmg_levels.size()) != max_level) {
    throw ConfigError("tuned-config level tables have wrong size");
  }
  for (int level = 1; level <= max_level; ++level) {
    const auto& v_row = v_levels[static_cast<std::size_t>(level - 1)].as_array();
    const auto& fmg_row =
        fmg_levels[static_cast<std::size_t>(level - 1)].as_array();
    if (static_cast<int>(v_row.size()) != config.accuracy_count() ||
        static_cast<int>(fmg_row.size()) != config.accuracy_count()) {
      throw ConfigError("tuned-config accuracy rows have wrong size");
    }
    for (int i = 0; i < config.accuracy_count(); ++i) {
      config.v_entry(level, i) =
          v_entry_from_json(v_row[static_cast<std::size_t>(i)]);
      config.fmg_entry(level, i) =
          fmg_entry_from_json(fmg_row[static_cast<std::size_t>(i)]);
    }
  }
  // Semantic validation: recursion must reference valid accuracy indices,
  // and iteration counts and smoothers must be ones the trainer can write
  // — V cells run at least one sweep or body, FMG cells may stop after
  // their estimate.  A negative (or zero V) count would load and then
  // solve as a silent no-op that still reports convergence, and a Jacobi
  // cell would silently relax with point SOR (the executor runs SOR for
  // every smoother that is not a line variant).
  for (int level = 1; level <= max_level; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      const VChoice& vc = config.v_entry(level, i).choice;
      const FmgChoice& fc = config.fmg_entry(level, i).choice;
      if (vc.smoother == solvers::RelaxKind::kJacobi ||
          fc.smoother == solvers::RelaxKind::kJacobi) {
        throw ConfigError(
            "tuned-config: jacobi is not a tunable smoother (the trainer "
            "races point_rb and the line variants only)");
      }
      if (vc.kind != VKind::kDirect && vc.iterations < 1) {
        throw ConfigError("tuned-config: V iterations must be >= 1");
      }
      if (vc.kind == VKind::kRecurse) {
        // kClassicalCoarse (-1) is the classical single-body V-cycle.
        if (vc.sub_accuracy < kClassicalCoarse ||
            vc.sub_accuracy >= config.accuracy_count()) {
          throw ConfigError("tuned-config: recurse sub_accuracy out of range");
        }
        if (level <= 1) {
          throw ConfigError("tuned-config: level 1 cannot recurse");
        }
      }
      if (fc.kind != FmgKind::kDirect) {
        if (fc.iterations < 0) {
          throw ConfigError("tuned-config: FMG iterations must be >= 0");
        }
        if (fc.estimate_accuracy < 0 ||
            fc.estimate_accuracy >= config.accuracy_count()) {
          throw ConfigError(
              "tuned-config: estimate_accuracy out of range");
        }
        if (level <= 1) {
          throw ConfigError("tuned-config: level 1 cannot estimate");
        }
      }
      if (fc.kind == FmgKind::kEstimateThenRecurse &&
          (fc.solve_accuracy < 0 ||
           fc.solve_accuracy >= config.accuracy_count())) {
        throw ConfigError("tuned-config: solve_accuracy out of range");
      }
    }
  }
  return config;
}

void TunedConfig::save(const std::string& path) const {
  write_text_file(path, to_json().dump(2) + "\n");
}

TunedConfig TunedConfig::load(const std::string& path) {
  return from_json(Json::parse(read_text_file(path)));
}

std::vector<double> paper_accuracies() {
  return {1e1, 1e3, 1e5, 1e7, 1e9};
}

Reach reach(const TunedConfig& config, int top) {
  PBMG_CHECK(top >= 1 && top <= config.max_level(),
             "reach: level " + std::to_string(top) + " outside [1, " +
                 std::to_string(config.max_level()) + "]");
  const int m = config.accuracy_count();
  const auto slot = [](int i) { return static_cast<std::size_t>(i); };
  Reach out;
  // The V and FMG accuracy indices reachable at `level`.  Every link goes
  // one level down, so one sweep from the top visits each cell once.
  std::vector<bool> v(slot(m), true);
  std::vector<bool> fmg(slot(m), true);
  for (int level = top; level >= 2; --level) {
    std::vector<bool> v_below(slot(m), false);
    std::vector<bool> fmg_below(slot(m), false);
    // One RECURSE body at `level` and the coarse call it makes.  A
    // classical ramp runs the body's smoother and coarsening at every
    // level below, down to the level-1 direct solve.
    const auto body = [&](int sub, solvers::RelaxKind smoother,
                          grid::Coarsening coarsening) {
      if (solvers::is_line_relax(smoother)) out.line_smoothers = true;
      if (coarsening == grid::Coarsening::kRap &&
          (level < top || sub == kClassicalCoarse)) {
        out.rap_below_top = true;
      }
      if (sub >= 0 && sub < m) v_below[slot(sub)] = true;
    };
    for (int i = 0; i < m; ++i) {
      const VEntry& ve = config.v_entry(level, i);
      if (v[slot(i)] && ve.trained && ve.choice.kind == VKind::kRecurse) {
        body(ve.choice.sub_accuracy, ve.choice.smoother,
             ve.choice.coarsening);
      }
      const FmgEntry& fe = config.fmg_entry(level, i);
      if (!fmg[slot(i)] || !fe.trained || fe.choice.kind == FmgKind::kDirect) {
        continue;
      }
      const int est = fe.choice.estimate_accuracy;
      if (est >= 0 && est < m) fmg_below[slot(est)] = true;
      if (fe.choice.kind == FmgKind::kEstimateThenRecurse) {
        body(fe.choice.solve_accuracy, fe.choice.smoother,
             fe.choice.coarsening);
      }
    }
    v = std::move(v_below);
    fmg = std::move(fmg_below);
  }
  return out;
}

namespace {

std::string accuracy_label(const TunedConfig& config, int index) {
  const double a = config.accuracies()[static_cast<std::size_t>(index)];
  const int exp = static_cast<int>(std::lround(std::log10(a)));
  std::ostringstream oss;
  oss << "10^" << exp;
  return oss.str();
}

}  // namespace

std::string smoother_tag(solvers::RelaxKind kind) {
  return kind == solvers::RelaxKind::kSor
             ? std::string()
             : " {" + solvers::to_string(kind) + "}";
}

std::string coarsening_tag(grid::Coarsening mode) {
  return mode == grid::Coarsening::kAverage
             ? std::string()
             : " {" + grid::to_string(mode) + "}";
}

std::string render_call_stack(const TunedConfig& config, int level,
                              int accuracy_index) {
  std::ostringstream out;
  int k = level;
  int i = accuracy_index;
  while (k >= 1) {
    const VEntry& entry = config.v_entry(k, i);
    out << "level " << (k < 10 ? " " : "") << k << " (N=" << size_of_level(k)
        << "): MULTIGRID-V[" << accuracy_label(config, i) << "] -> ";
    switch (entry.choice.kind) {
      case VKind::kDirect:
        out << "DIRECT\n";
        return out.str();
      case VKind::kIterSor:
        out << "SOR(w_opt) x" << entry.choice.iterations << "\n";
        return out.str();
      case VKind::kRecurse:
        if (entry.choice.sub_accuracy == kClassicalCoarse) {
          // The rest of the stack is the classical V ramp: one body per
          // level down to the direct base case.
          out << "RECURSE[classic-V] x" << entry.choice.iterations
              << smoother_tag(entry.choice.smoother)
              << coarsening_tag(entry.choice.coarsening) << "\n";
          return out.str();
        }
        out << "RECURSE[" << accuracy_label(config, entry.choice.sub_accuracy)
            << "] x" << entry.choice.iterations
            << smoother_tag(entry.choice.smoother)
            << coarsening_tag(entry.choice.coarsening) << "\n";
        i = entry.choice.sub_accuracy;
        k -= 1;
        break;
    }
  }
  return out.str();
}

std::string render_fmg_call_stack(const TunedConfig& config, int level,
                                  int accuracy_index) {
  std::ostringstream out;
  int k = level;
  int i = accuracy_index;
  while (k >= 1) {
    const FmgEntry& entry = config.fmg_entry(k, i);
    out << "level " << (k < 10 ? " " : "") << k << " (N=" << size_of_level(k)
        << "): FULL-MG[" << accuracy_label(config, i) << "] -> ";
    switch (entry.choice.kind) {
      case FmgKind::kDirect:
        out << "DIRECT\n";
        return out.str();
      case FmgKind::kEstimateThenSor:
        out << "ESTIMATE[" << accuracy_label(config, entry.choice.estimate_accuracy)
            << "] + SOR(w_opt) x" << entry.choice.iterations << "\n";
        i = entry.choice.estimate_accuracy;
        k -= 1;
        break;
      case FmgKind::kEstimateThenRecurse:
        out << "ESTIMATE[" << accuracy_label(config, entry.choice.estimate_accuracy)
            << "] + RECURSE[" << accuracy_label(config, entry.choice.solve_accuracy)
            << "] x" << entry.choice.iterations
            << smoother_tag(entry.choice.smoother)
            << coarsening_tag(entry.choice.coarsening) << "\n";
        i = entry.choice.estimate_accuracy;
        k -= 1;
        break;
    }
  }
  return out.str();
}

}  // namespace pbmg::tune
