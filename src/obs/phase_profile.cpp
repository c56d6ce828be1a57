#include "obs/phase_profile.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pbmg::obs {

namespace {

constexpr double kNanosPerSecond = 1e9;

int clamp_level(int level) {
  return std::clamp(level, 0, PhaseProfile::kMaxLevel);
}

}  // namespace

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kRelax:
      return "relax";
    case Phase::kLineSolve:
      return "line_solve";
    case Phase::kRestrict:
      return "restrict";
    case Phase::kInterpolate:
      return "interpolate";
    case Phase::kDirect:
      return "direct";
  }
  return "unknown";
}

const PhaseProfile::Cell& PhaseProfile::cell(Phase phase, int level) const {
  return cells_[static_cast<std::size_t>(clamp_level(level) * kPhaseCount +
                                         static_cast<int>(phase))];
}

PhaseProfile::Cell& PhaseProfile::cell(Phase phase, int level) {
  return cells_[static_cast<std::size_t>(clamp_level(level) * kPhaseCount +
                                         static_cast<int>(phase))];
}

void PhaseProfile::record(Phase phase, int level, double seconds) {
  Cell& c = cell(phase, level);
  c.nanos.fetch_add(static_cast<std::int64_t>(seconds * kNanosPerSecond),
                    std::memory_order_relaxed);
  c.count.fetch_add(1, std::memory_order_relaxed);
}

double PhaseProfile::total_seconds() const {
  std::int64_t nanos = 0;
  for (const Cell& c : cells_) {
    nanos += c.nanos.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nanos) / kNanosPerSecond;
}

double PhaseProfile::phase_seconds(Phase phase) const {
  std::int64_t nanos = 0;
  for (int level = 0; level <= kMaxLevel; ++level) {
    nanos += cell(phase, level).nanos.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nanos) / kNanosPerSecond;
}

std::vector<PhaseProfile::Entry> PhaseProfile::entries() const {
  std::vector<Entry> out;
  for (int level = kMaxLevel; level >= 0; --level) {
    for (int p = 0; p < kPhaseCount; ++p) {
      const Cell& c = cell(static_cast<Phase>(p), level);
      const std::int64_t count = c.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      Entry entry;
      entry.level = level;
      entry.phase = static_cast<Phase>(p);
      entry.seconds =
          static_cast<double>(c.nanos.load(std::memory_order_relaxed)) /
          kNanosPerSecond;
      entry.count = count;
      out.push_back(entry);
    }
  }
  return out;
}

void PhaseProfile::reset() {
  for (Cell& c : cells_) {
    c.nanos.store(0, std::memory_order_relaxed);
    c.count.store(0, std::memory_order_relaxed);
  }
}

Json to_json(const PhaseProfile& profile) {
  const auto entries = profile.entries();
  Json doc = Json::object();
  doc.set("total_seconds", profile.total_seconds());
  Json levels = Json::array();
  int current_level = -1;
  Json* row = nullptr;
  for (const auto& entry : entries) {
    if (entry.level != current_level) {
      Json fresh = Json::object();
      fresh.set("level", entry.level);
      levels.push_back(std::move(fresh));
      row = &levels.as_array().back();
      current_level = entry.level;
    }
    const std::string phase = to_string(entry.phase);
    row->set(phase + "_s", entry.seconds);
    row->set(phase + "_count", entry.count);
  }
  doc.set("levels", std::move(levels));
  return doc;
}

}  // namespace pbmg::obs
