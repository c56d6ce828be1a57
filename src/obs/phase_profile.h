#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "support/json.h"
#include "support/timer.h"

/// \file phase_profile.h
/// Per-solve wall-time attribution: which multigrid level spent how long
/// in which phase.
///
/// A PhaseProfile is a (level × phase) grid of relaxed-atomic
/// accumulators; solvers wrap each sweep-granularity operation (one
/// relaxation sweep, one residual+restriction, one interpolation, one
/// direct solve, or one fused pass of several) in a ScopedPhaseTimer.
/// Set-up such as coarsening the operator ladders happens at bind
/// (tune::PreparedOperator), before any solve, so no phase of a solve
/// builds anything.
/// The hooks sit *between* kernels, never inside their parallel loops, so
/// a profile adds two clock reads per sweep — microseconds against
/// sweeps that cost tens of microseconds to milliseconds — and the
/// null-sink fast path (a null profile pointer) reduces every hook to one
/// predictable branch, keeping the un-profiled solve path unmeasurably
/// close to the pre-instrumentation code.
///
/// Profiles are thread-safe: concurrent solves may share one profile to
/// aggregate a workload-wide breakdown (bench/fig17_concurrent_service),
/// or each request can carry its own (SolveRequest::profile).

namespace pbmg::obs {

/// Phases a solve's wall time is attributed to.
enum class Phase {
  /// Point relaxation sweeps (SOR / Jacobi), and the fused passes of a
  /// point-SOR RECURSE body on the Poisson operator or under the packed
  /// layout, each timed once here: the head (pre-sweep + residual
  /// restriction + zeroed correction) and the tail (interpolated
  /// correction + post-sweep).  So on that path kRestrict and
  /// kInterpolate keep only ESTIMATE's transfers; line-smoother bodies
  /// and the legacy layout's variable-coefficient bodies still time
  /// their transfers there.
  kRelax = 0,
  kLineSolve,     ///< zebra line-relaxation sweeps (batched Thomas)
  kRestrict,      ///< residual/problem formation + restriction
  kInterpolate,   ///< correction/solution interpolation
  kDirect,        ///< banded-Cholesky base solves
};

inline constexpr int kPhaseCount = 5;

/// Short stable identifier ("relax", "line_solve", ...).
const char* to_string(Phase phase);

/// Accumulates per-(level, phase) wall time and call counts.
class PhaseProfile {
 public:
  /// Highest attributable level; records above it clamp (level 15 is
  /// N = 32769, beyond every trained configuration).
  static constexpr int kMaxLevel = 15;

  PhaseProfile() = default;
  PhaseProfile(const PhaseProfile&) = delete;
  PhaseProfile& operator=(const PhaseProfile&) = delete;

  /// Adds `seconds` to the (level, phase) cell.  Thread-safe, lock-free.
  void record(Phase phase, int level, double seconds);

  /// Total attributed time across all cells.
  double total_seconds() const;

  /// Total attributed time of one phase across all levels.
  double phase_seconds(Phase phase) const;

  /// One non-empty cell of the profile.
  struct Entry {
    int level = 0;
    Phase phase = Phase::kRelax;
    double seconds = 0.0;
    std::int64_t count = 0;  ///< scoped-timer activations
  };

  /// All non-empty cells, finest level first, phases in enum order.
  std::vector<Entry> entries() const;

  /// Zeroes every cell (reuse across solves).
  void reset();

 private:
  struct Cell {
    std::atomic<std::int64_t> nanos{0};
    std::atomic<std::int64_t> count{0};
  };

  const Cell& cell(Phase phase, int level) const;
  Cell& cell(Phase phase, int level);

  std::array<Cell, (kMaxLevel + 1) * kPhaseCount> cells_{};
};

/// RAII hook: times its scope into `profile`, or does nothing at all —
/// not even a clock read — when `profile` is null (the fast path every
/// un-profiled solve takes).
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(PhaseProfile* profile, Phase phase, int level)
      : profile_(profile), phase_(phase), level_(level) {
    if (profile_ != nullptr) start_ = now_seconds();
  }
  ~ScopedPhaseTimer() {
    if (profile_ != nullptr) {
      profile_->record(phase_, level_, now_seconds() - start_);
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseProfile* profile_;
  Phase phase_;
  int level_;
  double start_ = 0.0;
};

/// JSON exposition: {"total_seconds": ..., "levels": [{"level": L,
/// "<phase>_s": ..., "<phase>_count": ...}, ...]} — one row per level
/// that recorded anything, finest first.
Json to_json(const PhaseProfile& profile);

}  // namespace pbmg::obs
