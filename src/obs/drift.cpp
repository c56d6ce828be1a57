#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.h"

namespace pbmg::obs {

double ks_distance(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  if (a.count <= 0 || b.count <= 0) return 0.0;
  const std::size_t buckets = std::max(a.buckets.size(), b.buckets.size());
  double cdf_a = 0.0;
  double cdf_b = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < buckets; ++i) {
    if (i < a.buckets.size()) {
      cdf_a += static_cast<double>(a.buckets[i]) /
               static_cast<double>(a.count);
    }
    if (i < b.buckets.size()) {
      cdf_b += static_cast<double>(b.buckets[i]) /
               static_cast<double>(b.count);
    }
    worst = std::max(worst, std::abs(cdf_a - cdf_b));
  }
  return std::min(worst, 1.0);
}

Json snapshot_to_json(const HistogramSnapshot& snapshot) {
  Json json = Json::object();
  json.set("count", snapshot.count);
  json.set("sum", snapshot.sum);
  json.set("min", snapshot.min);
  json.set("max", snapshot.max);
  Json buckets = Json::array();
  std::size_t last = snapshot.buckets.size();
  while (last > 0 && snapshot.buckets[last - 1] == 0) --last;
  for (std::size_t i = 0; i < last; ++i) {
    buckets.push_back(snapshot.buckets[i]);
  }
  json.set("buckets", std::move(buckets));
  return json;
}

HistogramSnapshot snapshot_from_json(const Json& json) {
  HistogramSnapshot snapshot;
  snapshot.count = json.at("count").as_int();
  snapshot.sum = json.at("sum").as_double();
  snapshot.min = json.at("min").as_double();
  snapshot.max = json.at("max").as_double();
  const auto& buckets = json.at("buckets").as_array();
  if (buckets.size() > static_cast<std::size_t>(Histogram::kBucketCount)) {
    throw ConfigError("latency baseline: histogram has " +
                      std::to_string(buckets.size()) +
                      " buckets, expected at most " +
                      std::to_string(Histogram::kBucketCount));
  }
  snapshot.buckets.assign(static_cast<std::size_t>(Histogram::kBucketCount),
                          0);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    // Negative counts, or a sum past int64 (undefined in signed
    // arithmetic), could add up to any total, the count included.
    const std::int64_t samples = buckets[i].as_int();
    if (samples < 0 ||
        samples > std::numeric_limits<std::int64_t>::max() - total) {
      throw ConfigError("latency baseline: bucket " + std::to_string(i) +
                        " holds " + std::to_string(samples) + " samples");
    }
    snapshot.buckets[i] = samples;
    total += samples;
  }
  if (total != snapshot.count) {
    throw ConfigError("latency baseline: bucket sum " + std::to_string(total) +
                      " does not match count " +
                      std::to_string(snapshot.count));
  }
  return snapshot;
}

Json LatencyBaseline::to_json() const {
  Json entries = Json::array();
  for (const auto& [key, snapshot] : entries_) {
    Json entry = snapshot_to_json(snapshot);
    entry.set("n", key.n);
    entry.set("accuracy_index", key.accuracy_index);
    // Written only when true: v7 documents that predate the cycle-type
    // split have no "fmg" field, and absent reads as false below.
    if (key.fmg) entry.set("fmg", true);
    entries.push_back(std::move(entry));
  }
  Json json = Json::object();
  json.set("entries", std::move(entries));
  return json;
}

LatencyBaseline LatencyBaseline::from_json(const Json& json) {
  LatencyBaseline baseline;
  for (const Json& entry : json.at("entries").as_array()) {
    baseline.set(entry.at("n").as_int32(),
                 entry.at("accuracy_index").as_int32(),
                 snapshot_from_json(entry),
                 entry.contains("fmg") && entry.at("fmg").as_bool());
  }
  return baseline;
}

namespace {

void record_into(HistogramSnapshot& window, double seconds) {
  if (window.buckets.empty()) {
    window.buckets.assign(static_cast<std::size_t>(Histogram::kBucketCount),
                          0);
  }
  const int bucket = Histogram::bucket_index(seconds);
  window.buckets[static_cast<std::size_t>(bucket)] += 1;
  window.sum += seconds;
  window.min = window.count == 0 ? seconds : std::min(window.min, seconds);
  window.max = window.count == 0 ? seconds : std::max(window.max, seconds);
  window.count += 1;
}

}  // namespace

DriftObservation DriftWatcher::observe(int n, int accuracy_index,
                                       double seconds, bool fmg) {
  DriftObservation obs;
  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& state = windows_[LatencyBaseline::Key{n, accuracy_index, fmg}];
  const HistogramSnapshot* baseline = baseline_.find(n, accuracy_index, fmg);
  if (baseline == nullptr || baseline->count <= 0) {
    // Never-measured request shape: nothing to compare against.  Skipping
    // is honest — inventing a baseline from early live samples would make
    // the watcher blind to drift that was already present at install.
    return obs;
  }
  obs.baselined = true;
  record_into(state.window, seconds);
  if (state.window.count < policy_.min_window_samples) return obs;

  obs.window_complete = true;
  const double live_p90 = state.window.percentile(90.0);
  const double base_p90 = baseline->percentile(90.0);
  obs.p90_ratio = base_p90 > 0.0
                      ? live_p90 / base_p90
                      : (live_p90 > 0.0
                             ? std::numeric_limits<double>::infinity()
                             : 1.0);
  obs.ks = ks_distance(state.window, *baseline);
  obs.drifted =
      obs.p90_ratio > policy_.p90_ratio && obs.ks > policy_.ks_threshold;
  state.window = HistogramSnapshot{};  // windows are tumbling, not sliding
  if (obs.drifted) {
    state.drift_streak += 1;
    if (state.drift_streak >= policy_.sustained_windows) {
      obs.retune = true;
      state.drift_streak = 0;  // don't re-fire every window mid-retune
    }
  } else {
    state.drift_streak = 0;
  }
  return obs;
}

void DriftWatcher::rebase(LatencyBaseline baseline) {
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = std::move(baseline);
  windows_.clear();
}

}  // namespace pbmg::obs
