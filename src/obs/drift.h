#pragma once

#include <map>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "support/json.h"

/// \file drift.h
/// Latency-drift detection against a tuned baseline.
///
/// A tuned configuration is only optimal for the machine state it was
/// measured on (PAPERS.md: "Software Autotuning for Sustainable
/// Performance Portability").  This module supplies the comparison half
/// of the re-tune-over-time loop: at tune/install time the service
/// snapshots a per-(n × accuracy) latency distribution (LatencyBaseline,
/// persisted alongside the tuned-table JSON); at serving time a
/// DriftWatcher accumulates live samples into per-key windows and, each
/// time a window fills, compares it against the baseline with two
/// tunable tests — a p90 ratio threshold (is the tail slower, and by how
/// much?) and a KS-style bucket-mass distance (did the distribution's
/// shape actually move, or did one outlier drag the percentile?).  Only
/// when both tests fail for `sustained_windows` consecutive windows does
/// the watcher signal a retune, which keeps one noisy window — a page
/// cache miss, a CPU migration — from triggering a full re-search.

namespace pbmg::obs {

/// Kolmogorov–Smirnov-style distance between two histograms: the maximum
/// absolute difference of their cumulative bucket-mass distributions
/// (each histogram's buckets normalized by its own count).  Shared log
/// bucket boundaries make this a pure array walk.  Returns 0 when either
/// histogram is empty; range [0, 1].
double ks_distance(const HistogramSnapshot& a, const HistogramSnapshot& b);

/// Serialization of one histogram snapshot (count/sum/min/max/buckets),
/// used by LatencyBaseline persistence.  Trailing zero buckets are
/// elided; from_json re-pads to Histogram::kBucketCount.
Json snapshot_to_json(const HistogramSnapshot& snapshot);
HistogramSnapshot snapshot_from_json(const Json& json);

/// Baseline latency distributions keyed by (n, accuracy_index, cycle
/// type): what the service should expect per request shape when the
/// machine behaves like it did at tune time.  V-cycle and FMG solves of
/// the same (n, accuracy) have structurally different latencies, so
/// mixing them in one key makes the baseline bimodal — KS distance then
/// reads the mode mixture as drift (or masks real drift).  Plain value
/// type — measured by tune-side code, persisted in the config cache
/// (schema v7; the "fmg" field is optional so v7 documents written
/// before the split still load), handed to DriftWatcher.
class LatencyBaseline {
 public:
  /// (grid side n, accuracy index, FMG vs V-cycle).
  struct Key {
    int n = 0;
    int accuracy_index = 0;
    bool fmg = false;
    auto operator<=>(const Key&) const = default;
  };

  void set(int n, int accuracy_index, HistogramSnapshot snapshot,
           bool fmg = false) {
    entries_[Key{n, accuracy_index, fmg}] = std::move(snapshot);
  }

  /// Baseline for one request shape, or null when that shape was never
  /// measured (the watcher skips such keys rather than guessing).
  const HistogramSnapshot* find(int n, int accuracy_index,
                                bool fmg = false) const {
    auto it = entries_.find(Key{n, accuracy_index, fmg});
    return it == entries_.end() ? nullptr : &it->second;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::map<Key, HistogramSnapshot>& entries() const { return entries_; }

  /// {"entries": [{"n", "accuracy_index", ["fmg",] <snapshot fields>}]}.
  Json to_json() const;
  static LatencyBaseline from_json(const Json& json);

 private:
  std::map<Key, HistogramSnapshot> entries_;
};

/// Tunable drift-detection thresholds.  Defaults are deliberately far
/// above the histogram's own resolution (percentiles carry ≈1.16×
/// relative error, Histogram::relative_resolution), so bucket-boundary
/// jitter alone can never read as drift.
struct DriftPolicy {
  /// Fire when live p90 exceeds baseline p90 by this factor.
  double p90_ratio = 1.5;
  /// ...and the bucket-mass distance also exceeds this (range [0, 1]).
  double ks_threshold = 0.30;
  /// Samples per comparison window (the sample-count cadence).
  int min_window_samples = 32;
  /// Consecutive drifted windows (per key) required to request a retune.
  int sustained_windows = 2;
};

/// Verdict for one observed sample (see DriftWatcher::observe).
struct DriftObservation {
  bool baselined = false;        ///< key had a baseline entry to compare to
  bool window_complete = false;  ///< this sample closed a comparison window
  bool drifted = false;          ///< closed window failed both tests
  bool retune = false;           ///< drift sustained: caller should retune
  double p90_ratio = 0.0;        ///< live p90 / baseline p90 (closed windows)
  double ks = 0.0;               ///< bucket-mass distance (closed windows)
};

/// Accumulates live latency samples into per-(n × accuracy) windows and
/// compares each full window against the baseline.  Thread-safe: observe
/// and rebase serialize on an internal mutex, which is fine because a
/// sample is one bucket increment and a window close is one array walk —
/// both invisible next to the multi-millisecond solves being measured.
class DriftWatcher {
 public:
  DriftWatcher(LatencyBaseline baseline, DriftPolicy policy = {})
      : baseline_(std::move(baseline)), policy_(policy) {}

  /// Records one live latency sample for (n, accuracy_index, cycle
  /// type).  Returns the verdict: retune=true means drift was sustained
  /// for the policy's window count and the caller should start a
  /// background retune (the watcher resets that key's streak so it will
  /// not re-fire every window while the retune runs).  FMG and V-cycle
  /// samples accumulate into separate windows and compare against
  /// separate baseline entries.
  DriftObservation observe(int n, int accuracy_index, double seconds,
                           bool fmg = false);

  /// Installs a fresh baseline (after a retune + config swap) and drops
  /// all in-flight windows and drift streaks.
  void rebase(LatencyBaseline baseline);

  const DriftPolicy& policy() const { return policy_; }

 private:
  struct KeyState {
    HistogramSnapshot window;  ///< accumulating live window (plain, locked)
    int drift_streak = 0;      ///< consecutive drifted windows
  };

  std::mutex mutex_;
  LatencyBaseline baseline_;
  DriftPolicy policy_;
  std::map<LatencyBaseline::Key, KeyState> windows_;
};

}  // namespace pbmg::obs
