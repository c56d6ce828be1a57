#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"

/// \file machine_profile.h
/// Machine profiles stand in for the paper's three physical testbeds.
///
/// The paper (§4.3) shows that the optimal tuned cycle shape depends on the
/// machine: Intel Xeon E7340 (Harpertown), AMD Opteron 2356 (Barcelona) and
/// Sun Fire T200 (Niagara) each produce different cycles.  We cannot ship
/// that silicon, so a profile captures the *mechanism* through which the
/// architecture influences tuning: how many threads run, how finely work is
/// sliced, and how expensive task creation is (Niagara's many slow threads
/// are modelled as high per-spawn overhead).  Profiles change the relative
/// cost of the sequential direct solver versus parallel relaxations, which
/// is exactly what moves the tuner's decisions.

namespace pbmg::rt {

/// Hardware threads reported by the platform (8 when it reports none).
int hardware_threads();

/// The most threads a loaded profile may name: far above any host this
/// runs on and above anything the profile search writes (its threads
/// range is the host's hardware_threads()).  profile_from_json rejects
/// more as ConfigError, so a cached entry asking for more is a clean
/// cache miss rather than a scheduler that starts that many workers.
inline constexpr int kMaxProfileThreads = 4096;

/// Execution-environment description used to configure the scheduler.
struct MachineProfile {
  /// Identifier used in configs, tables and figure labels.
  std::string name = "default";

  /// Number of threads that execute a parallel region (>= 1), counting the
  /// thread that calls into the scheduler: the pool starts threads − 1
  /// workers and the caller takes part in its own regions.  Defaults to the
  /// core count, so a default profile keeps one caller's regions within the
  /// machine; C concurrent callers can add up to C + threads − 1 threads.
  int threads = hardware_threads();

  /// Minimum rows per leaf task when slicing grid sweeps; larger values
  /// model architectures where fine-grained tasks are not profitable.
  /// The packed line passes slice their line groups by the thread count
  /// instead (grid/packed_kernels.h).
  int grain_rows = 8;

  /// Busy-wait injected on every task spawn, in nanoseconds.  Models
  /// scheduling cost on architectures with slow scalar cores.
  int spawn_overhead_ns = 0;

  /// Parallel/sequential cutoff: grid kernels whose total work is at most
  /// this bound run inline instead of forking tasks.  This is the
  /// "parallel-sequential cutoff point" PetaBricks tunes per machine
  /// (§3.2.2); profiles carry representative values.  Work is counted in
  /// Poisson SOR cell updates, the unit the default was calibrated in on
  /// Poisson V-cycles (bench/ablation_cutoff): a Poisson pass counts its
  /// cells, and inside a solve that has forked a region, a
  /// variable-coefficient pass counts its cells times its kind's weight
  /// and its batch size (rt::Scheduler::grain_for).
  std::int64_t sequential_cutoff_cells = 16384;
};

/// Profile modelled on the paper's Intel Xeon E7340 testbed: 8 fast cores,
/// cheap task spawns, fine grain.
MachineProfile harpertown_profile();

/// Profile modelled on the paper's AMD Opteron 2356 testbed: 8 cores,
/// moderate spawn cost, coarser grain.
MachineProfile barcelona_profile();

/// Profile modelled on the paper's Sun Fire T200 testbed: many hardware
/// threads with weak scalar performance (modelled as high spawn overhead and
/// fine grain).
MachineProfile niagara_profile();

/// Single-threaded profile (reference measurements, deterministic tests).
MachineProfile serial_profile();

/// Looks up a profile by name: "harpertown", "barcelona", "niagara",
/// "serial", or "default".  Throws pbmg::InvalidArgument for unknown names.
MachineProfile profile_by_name(const std::string& name);

/// Names accepted by profile_by_name, in presentation order.
std::vector<std::string> profile_names();

/// One runtime parameter a search may vary, with its admissible range.
/// This is the profile's side of the src/search contract: the search
/// subsystem turns these into ParamSpace dimensions without knowing what
/// the fields mean.
struct ProfileTunable {
  std::string name;         ///< "threads", "grain_rows", ...
  std::int64_t lo = 0;      ///< inclusive lower bound
  std::int64_t hi = 0;      ///< inclusive upper bound
  std::int64_t value = 0;   ///< the profile's current value (search default)
  bool log_scale = false;   ///< explore multiplicatively (grains, cutoffs)
};

/// The searchable runtime parameters of a profile: thread count, grain
/// rows, and the parallel/sequential cutoff.  spawn_overhead_ns is *not*
/// tunable — it models the machine, it does not configure it.
std::vector<ProfileTunable> profile_tunables(const MachineProfile& profile);

/// Returns a copy of `base` with the named tunable set to `value` (clamped
/// into the tunable's range).  Throws InvalidArgument for unknown names.
MachineProfile with_tunable(const MachineProfile& base,
                            const std::string& name, std::int64_t value);

/// JSON round trip, used by the tuned-config disk cache to persist searched
/// profiles alongside tuned tables.  profile_from_json throws ConfigError
/// for a field outside its range: threads outside [1, kMaxProfileThreads],
/// grain_rows < 1, or a negative spawn overhead or cutoff.
Json profile_to_json(const MachineProfile& profile);
MachineProfile profile_from_json(const Json& json);

}  // namespace pbmg::rt
