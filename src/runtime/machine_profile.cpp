#include "runtime/machine_profile.h"

#include <algorithm>
#include <thread>

#include "support/error.h"

namespace pbmg::rt {

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 8 : static_cast<int>(hw);
}

MachineProfile harpertown_profile() {
  MachineProfile p;
  p.name = "harpertown";
  p.threads = std::min(8, hardware_threads());
  p.grain_rows = 8;
  p.spawn_overhead_ns = 0;
  p.sequential_cutoff_cells = 16384;
  return p;
}

MachineProfile barcelona_profile() {
  MachineProfile p;
  p.name = "barcelona";
  p.threads = std::min(8, hardware_threads());
  p.grain_rows = 32;
  p.spawn_overhead_ns = 500;
  p.sequential_cutoff_cells = 32768;
  return p;
}

MachineProfile niagara_profile() {
  MachineProfile p;
  p.name = "niagara";
  p.threads = std::min(24, hardware_threads());
  p.grain_rows = 4;
  p.spawn_overhead_ns = 4000;
  p.sequential_cutoff_cells = 8192;
  return p;
}

MachineProfile serial_profile() {
  MachineProfile p;
  p.name = "serial";
  p.threads = 1;
  p.grain_rows = 1 << 30;  // never split
  p.spawn_overhead_ns = 0;
  p.sequential_cutoff_cells = std::int64_t{1} << 62;
  return p;
}

MachineProfile profile_by_name(const std::string& name) {
  if (name == "harpertown") return harpertown_profile();
  if (name == "barcelona") return barcelona_profile();
  if (name == "niagara") return niagara_profile();
  if (name == "serial") return serial_profile();
  if (name == "default") return MachineProfile{};
  throw InvalidArgument("unknown machine profile '" + name +
                        "' (expected harpertown|barcelona|niagara|serial|"
                        "default)");
}

std::vector<std::string> profile_names() {
  return {"harpertown", "barcelona", "niagara", "serial", "default"};
}

std::vector<ProfileTunable> profile_tunables(const MachineProfile& profile) {
  const auto clamp64 = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    return std::min(std::max(v, lo), hi);
  };
  // Thread count may range over the actual hardware, not the profile's
  // modelled testbed, so a search can exploit bigger machines.
  const std::int64_t max_threads =
      std::max<std::int64_t>(hardware_threads(), profile.threads);
  std::vector<ProfileTunable> tunables;
  tunables.push_back({"threads", 1, max_threads,
                      clamp64(profile.threads, 1, max_threads), false});
  tunables.push_back({"grain_rows", 1, 512,
                      clamp64(profile.grain_rows, 1, 512), true});
  tunables.push_back(
      {"sequential_cutoff_cells", 64, std::int64_t{1} << 21,
       clamp64(profile.sequential_cutoff_cells, 64, std::int64_t{1} << 21),
       true});
  return tunables;
}

MachineProfile with_tunable(const MachineProfile& base, const std::string& name,
                            std::int64_t value) {
  MachineProfile p = base;
  for (const ProfileTunable& t : profile_tunables(base)) {
    if (t.name != name) continue;
    const std::int64_t v = std::min(std::max(value, t.lo), t.hi);
    if (name == "threads") {
      p.threads = static_cast<int>(v);
    } else if (name == "grain_rows") {
      p.grain_rows = static_cast<int>(v);
    } else {
      p.sequential_cutoff_cells = v;
    }
    return p;
  }
  throw InvalidArgument("with_tunable: unknown tunable '" + name + "'");
}

Json profile_to_json(const MachineProfile& profile) {
  Json j = Json::object();
  j.set("name", profile.name);
  j.set("threads", std::int64_t{profile.threads});
  j.set("grain_rows", std::int64_t{profile.grain_rows});
  j.set("spawn_overhead_ns", std::int64_t{profile.spawn_overhead_ns});
  j.set("sequential_cutoff_cells", profile.sequential_cutoff_cells);
  return j;
}

MachineProfile profile_from_json(const Json& json) {
  MachineProfile p;
  p.name = json.get("name", p.name);
  p.threads = json.get("threads", p.threads);
  p.grain_rows = json.get("grain_rows", p.grain_rows);
  p.spawn_overhead_ns = json.get("spawn_overhead_ns", p.spawn_overhead_ns);
  p.sequential_cutoff_cells =
      json.get("sequential_cutoff_cells", p.sequential_cutoff_cells);
  if (p.threads < 1 || p.threads > kMaxProfileThreads || p.grain_rows < 1 ||
      p.spawn_overhead_ns < 0 || p.sequential_cutoff_cells < 0) {
    throw ConfigError("machine profile JSON has out-of-range fields");
  }
  return p;
}

}  // namespace pbmg::rt
