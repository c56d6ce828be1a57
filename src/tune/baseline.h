#pragma once

#include "engine/engine.h"
#include "obs/drift.h"
#include "tune/table.h"

/// \file baseline.h
/// Baseline latency measurement for tuned configurations.
///
/// A tuned config's expected per-request latency is part of what the
/// tuning measured — it is only meaningful on the machine state the DP
/// ran under.  This module captures that expectation explicitly: right
/// after training, measure_latency_baseline times a handful of solves
/// per (n × accuracy) cell through a SolveSession on the tuning engine
/// (the path serving takes) and snapshots the resulting
/// histograms into an obs::LatencyBaseline.  The baseline travels with
/// the tuned tables (config-cache schema v7 stores both in one JSON
/// document) and seeds SolveService's DriftWatcher, closing the loop the
/// ROADMAP calls "drift detection on live telemetry".

namespace pbmg::tune {

/// Knobs for measure_latency_baseline.  The defaults keep the
/// measurement a small constant addition to training time: a few timed
/// solves per cell is enough, because the drift tests compare p90s at
/// ≈1.16× bucket resolution against thresholds of 1.5×, not exact
/// quantiles.
struct BaselineOptions {
  int samples = 5;           ///< timed solves per (level × accuracy) cell
  int min_level = 2;         ///< smallest measured level (side 2^k + 1)
  int max_level = 0;         ///< 0 = the config's trained top level
  bool include_fmg = false;  ///< also time FMG solves (own fmg=true keys)
};

/// Measures the baseline latency distribution of `config` executed on
/// `engine` (which must carry the profile/relax the config was trained
/// under — same contract as executing the config at all).  Operators are
/// built from the config's own op_family, so non-Poisson families are
/// timed against the coefficient hierarchies they serve.  One untimed
/// warm-up solve per level precedes the samples, mirroring a session's
/// prewarmed steady state.  The timed right-hand sides come from a fixed
/// seed, so every measurement of one config times the same instances.
obs::LatencyBaseline measure_latency_baseline(Engine& engine,
                                              const TunedConfig& config,
                                              const BaselineOptions& options =
                                                  {});

}  // namespace pbmg::tune
