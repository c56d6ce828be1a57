// Drift detection & background retune: KS-style bucket-mass distance,
// latency-baseline serialization, DriftWatcher policy behaviour (inflated
// samples fire, stationary load never does), honest SolveStats (real
// iteration counts, residual-audited converged flag), request validation,
// and the SolveService generation swap — including race-freedom of
// install() under concurrent solves (this suite runs under TSan in CI).

#include <atomic>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/level.h"
#include "obs/drift.h"
#include "runtime/machine_profile.h"
#include "support/error.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/baseline.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

constexpr int kMaxLevel = 4;

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "drift-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

const tune::TunedConfig& trained() {
  static const tune::TunedConfig config = [] {
    tune::TrainerOptions options;
    options.max_level = kMaxLevel;
    options.seed = 4242;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

obs::HistogramSnapshot snapshot_of(std::initializer_list<double> values) {
  obs::Histogram hist;
  for (double v : values) hist.record(v);
  return hist.snapshot();
}

obs::HistogramSnapshot snapshot_at(double value, int count) {
  obs::Histogram hist;
  for (int i = 0; i < count; ++i) hist.record(value);
  return hist.snapshot();
}

// ---------------------------------------------------------- ks_distance --

TEST(KsDistance, IdenticalDistributionsScoreZero) {
  const auto a = snapshot_of({1e-3, 2e-3, 4e-3, 8e-3});
  EXPECT_DOUBLE_EQ(obs::ks_distance(a, a), 0.0);
}

TEST(KsDistance, DisjointDistributionsScoreOne) {
  const auto fast = snapshot_at(1e-5, 16);
  const auto slow = snapshot_at(1e-2, 16);
  EXPECT_DOUBLE_EQ(obs::ks_distance(fast, slow), 1.0);
}

TEST(KsDistance, EmptyHistogramScoresZero) {
  const obs::HistogramSnapshot empty;
  const auto a = snapshot_of({1e-3});
  EXPECT_DOUBLE_EQ(obs::ks_distance(empty, a), 0.0);
  EXPECT_DOUBLE_EQ(obs::ks_distance(a, empty), 0.0);
}

TEST(KsDistance, PartialOverlapScoresBetween) {
  obs::Histogram a, b;
  for (int i = 0; i < 8; ++i) a.record(1e-4);
  for (int i = 0; i < 8; ++i) a.record(1e-3);
  for (int i = 0; i < 8; ++i) b.record(1e-3);
  for (int i = 0; i < 8; ++i) b.record(1e-2);
  // CDFs meet only on the shared 1e-3 mass: distance is exactly 1/2.
  EXPECT_DOUBLE_EQ(obs::ks_distance(a.snapshot(), b.snapshot()), 0.5);
}

// ------------------------------------------------- baseline persistence --

TEST(LatencyBaseline, JsonRoundTripPreservesEveryEntry) {
  obs::LatencyBaseline baseline;
  baseline.set(17, 0, snapshot_of({1e-4, 2e-4, 3e-4}));
  baseline.set(33, 2, snapshot_of({5e-3, 6e-3}));

  const obs::LatencyBaseline copy =
      obs::LatencyBaseline::from_json(baseline.to_json());
  ASSERT_EQ(copy.size(), 2u);
  const obs::HistogramSnapshot* small = copy.find(17, 0);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->count, 3);
  EXPECT_DOUBLE_EQ(small->sum, baseline.find(17, 0)->sum);
  EXPECT_DOUBLE_EQ(small->min, baseline.find(17, 0)->min);
  EXPECT_DOUBLE_EQ(small->max, baseline.find(17, 0)->max);
  EXPECT_EQ(small->buckets, baseline.find(17, 0)->buckets);
  ASSERT_NE(copy.find(33, 2), nullptr);
  EXPECT_EQ(copy.find(33, 2)->count, 2);
  EXPECT_EQ(copy.find(99, 0), nullptr);
}

TEST(LatencyBaseline, RejectsCorruptSnapshots) {
  Json entry = obs::snapshot_to_json(snapshot_of({1e-3, 2e-3}));
  entry.set("count", 7);  // bucket sum no longer matches
  EXPECT_THROW(obs::snapshot_from_json(entry), ConfigError);

  Json too_wide = obs::snapshot_to_json(snapshot_of({1e-3}));
  Json buckets = Json::array();
  for (int i = 0; i < obs::Histogram::kBucketCount + 5; ++i) {
    buckets.push_back(std::int64_t{0});
  }
  too_wide.set("buckets", std::move(buckets));
  too_wide.set("count", 0);
  EXPECT_THROW(obs::snapshot_from_json(too_wide), ConfigError);
}

TEST(LatencyBaseline, MeasuredBaselineCoversEveryTrainedCell) {
  const obs::LatencyBaseline baseline = [] {
    tune::BaselineOptions options;
    options.samples = 2;
    return tune::measure_latency_baseline(engine(), trained(), options);
  }();
  const int cells = (kMaxLevel - 1) * trained().accuracy_count();
  EXPECT_EQ(baseline.size(), static_cast<std::size_t>(cells));
  for (int level = 2; level <= kMaxLevel; ++level) {
    for (int acc = 0; acc < trained().accuracy_count(); ++acc) {
      const obs::HistogramSnapshot* cell =
          baseline.find(size_of_level(level), acc);
      ASSERT_NE(cell, nullptr) << "level " << level << " acc " << acc;
      EXPECT_EQ(cell->count, 2);
      EXPECT_GT(cell->sum, 0.0);
    }
  }
}

// --------------------------------------------------------- DriftWatcher --

obs::DriftPolicy tight_policy() {
  obs::DriftPolicy policy;
  policy.min_window_samples = 8;
  policy.sustained_windows = 2;
  return policy;
}

TEST(DriftWatcher, StationarySamplesNeverFire) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  for (int i = 0; i < 200; ++i) {
    const obs::DriftObservation obs = watcher.observe(33, 1, 1e-3);
    EXPECT_TRUE(obs.baselined);
    EXPECT_FALSE(obs.drifted);
    EXPECT_FALSE(obs.retune);
  }
}

TEST(DriftWatcher, InflatedSamplesFireAfterSustainedWindows) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  // 5× slower than baseline: p90 ratio ≈ 5 (> 1.5), KS = 1 (> 0.30).
  // Windows close every 8 samples; the 2nd drifted window must fire.
  int retunes = 0;
  int windows = 0;
  for (int i = 0; i < 16; ++i) {
    const obs::DriftObservation obs = watcher.observe(33, 1, 5e-3);
    if (obs.window_complete) {
      ++windows;
      EXPECT_TRUE(obs.drifted);
      EXPECT_GT(obs.p90_ratio, 1.5);
      EXPECT_GT(obs.ks, 0.30);
    }
    if (obs.retune) ++retunes;
  }
  EXPECT_EQ(windows, 2);
  EXPECT_EQ(retunes, 1);
  // The streak was consumed by the fire: the very next drifted window must
  // NOT re-fire (it takes another sustained run — this is what keeps the
  // watcher quiet while a background retune is in flight).
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(watcher.observe(33, 1, 5e-3).retune);
  }
}

TEST(DriftWatcher, OneNoisyWindowDoesNotFire) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  // One slow window, then recovery: the streak resets, nothing fires.
  for (int i = 0; i < 8; ++i) watcher.observe(33, 1, 5e-3);
  for (int i = 0; i < 80; ++i) {
    EXPECT_FALSE(watcher.observe(33, 1, 1e-3).retune);
  }
}

TEST(DriftWatcher, SkipsKeysWithoutBaseline) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  for (int i = 0; i < 100; ++i) {
    const obs::DriftObservation obs = watcher.observe(65, 0, 10.0);
    EXPECT_FALSE(obs.baselined);
    EXPECT_FALSE(obs.retune);
  }
}

TEST(DriftWatcher, RebaseDropsWindowsAndStreaks) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  // One drifted window plus most of a second: one more sample would fire.
  for (int i = 0; i < 15; ++i) watcher.observe(33, 1, 5e-3);
  obs::LatencyBaseline fresh;
  fresh.set(33, 1, snapshot_at(5e-3, 32));
  watcher.rebase(std::move(fresh));
  // Against the rebased baseline these samples are healthy — and the old
  // streak must be gone.
  for (int i = 0; i < 100; ++i) {
    const obs::DriftObservation obs = watcher.observe(33, 1, 5e-3);
    EXPECT_FALSE(obs.drifted);
    EXPECT_FALSE(obs.retune);
  }
}

TEST(LatencyBaseline, FmgKeysAreSeparateAndSurviveJsonRoundTrip) {
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 4));
  baseline.set(33, 1, snapshot_at(3e-3, 4), /*fmg=*/true);
  ASSERT_EQ(baseline.size(), 2u);
  ASSERT_NE(baseline.find(33, 1), nullptr);
  ASSERT_NE(baseline.find(33, 1, /*fmg=*/true), nullptr);
  EXPECT_NE(baseline.find(33, 1)->sum, baseline.find(33, 1, true)->sum);

  const obs::LatencyBaseline copy =
      obs::LatencyBaseline::from_json(baseline.to_json());
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(copy.find(33, 1)->sum, baseline.find(33, 1)->sum);
  EXPECT_DOUBLE_EQ(copy.find(33, 1, true)->sum,
                   baseline.find(33, 1, true)->sum);

  // Documents written before the fmg key existed carry no "fmg" field;
  // they must keep loading as V-cycle (fmg = false) entries.
  obs::LatencyBaseline v_only;
  v_only.set(17, 0, snapshot_at(1e-4, 2));
  const obs::LatencyBaseline old_doc =
      obs::LatencyBaseline::from_json(v_only.to_json());
  ASSERT_NE(old_doc.find(17, 0), nullptr);
  EXPECT_EQ(old_doc.find(17, 0, /*fmg=*/true), nullptr);
}

TEST(DriftWatcher, MixedVAndFmgWorkloadsKeepSeparateWindows) {
  // FMG solves are legitimately slower than V-cycles (the ramp).  Keyed
  // together — the old bug — a workload shifting between modes read as
  // drift; keyed apart, each mode is judged against its own baseline.
  obs::LatencyBaseline baseline;
  baseline.set(33, 1, snapshot_at(1e-3, 32));
  baseline.set(33, 1, snapshot_at(3e-3, 32), /*fmg=*/true);
  obs::DriftWatcher watcher(std::move(baseline), tight_policy());
  // Interleaved healthy traffic of both modes: no window ever drifts,
  // even though the FMG samples are 3× the V baseline.
  for (int i = 0; i < 64; ++i) {
    const bool fmg = (i % 2) == 1;
    const obs::DriftObservation obs =
        watcher.observe(33, 1, fmg ? 3e-3 : 1e-3, fmg);
    EXPECT_TRUE(obs.baselined);
    EXPECT_FALSE(obs.drifted) << "i=" << i << " fmg=" << fmg;
    EXPECT_FALSE(obs.retune);
  }
  // Drift in ONE mode fires without the healthy mode masking it: V-cycle
  // latency inflates 5×, FMG stays at its baseline.
  int retunes = 0;
  for (int i = 0; i < 32; ++i) {
    const bool fmg = (i % 2) == 1;
    const obs::DriftObservation obs =
        watcher.observe(33, 1, fmg ? 3e-3 : 5e-3, fmg);
    if (fmg) EXPECT_FALSE(obs.drifted);
    if (obs.retune) ++retunes;
  }
  EXPECT_EQ(retunes, 1);
}

TEST(LatencyBaseline, MeasuredBaselineSplitsFmgIntoOwnKeys) {
  const obs::LatencyBaseline baseline = [] {
    tune::BaselineOptions options;
    options.samples = 1;
    options.include_fmg = true;
    return tune::measure_latency_baseline(engine(), trained(), options);
  }();
  const int cells = (kMaxLevel - 1) * trained().accuracy_count();
  EXPECT_EQ(baseline.size(), static_cast<std::size_t>(2 * cells));
  for (int level = 2; level <= kMaxLevel; ++level) {
    for (int acc = 0; acc < trained().accuracy_count(); ++acc) {
      const int n = size_of_level(level);
      const obs::HistogramSnapshot* v = baseline.find(n, acc);
      const obs::HistogramSnapshot* fmg = baseline.find(n, acc, true);
      ASSERT_NE(v, nullptr) << "level " << level << " acc " << acc;
      ASSERT_NE(fmg, nullptr) << "level " << level << " acc " << acc;
      EXPECT_EQ(v->count, 1);
      EXPECT_EQ(fmg->count, 1);
    }
  }
}

// ---------------------------------------------------- honest SolveStats --

TEST(HonestStats, TunedSolveReportsRealIterationCounts) {
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Rng rng(11);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  for (bool fmg : {false, true}) {
    SolveRequest request;
    request.accuracy_index = trained().accuracy_count() - 1;
    request.fmg = fmg;
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    const SolveStats stats = service.solve(x, inst.problem.b, request);
    // A tuned plan executes at least one top-level iteration (a direct
    // solve reports 1); the fabricated `iterations = 0` is gone.
    EXPECT_GE(stats.iterations, 1) << "fmg=" << fmg;
    EXPECT_FALSE(stats.residual_checked);
    EXPECT_TRUE(stats.converged);
  }
}

TEST(HonestStats, ResidualAuditConfirmsConvergenceAndCatchesFailure) {
  SolveService service(engine(), trained());
  const int n = size_of_level(4);
  Rng rng(12);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());

  SolveRequest audited;
  audited.accuracy_index = trained().accuracy_count() - 1;
  audited.residual.enabled = true;  // default ratio_limit 1.0: don't diverge
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  const SolveStats good = service.solve(x, inst.problem.b, audited);
  EXPECT_TRUE(good.residual_checked);
  EXPECT_TRUE(good.converged);
  EXPECT_GT(good.initial_residual, 0.0);
  // The top ladder rung cuts the residual by orders of magnitude.
  EXPECT_LT(good.final_residual, 1e-2 * good.initial_residual);

  // An unmeetable ratio_limit flags the same solve unconverged — and the
  // service reports it under the "unconverged" outcome, not "ok".
  SolveRequest impossible = audited;
  impossible.residual.ratio_limit = 0.0;
  x.copy_from(inst.problem.x0);
  const SolveStats bad = service.solve(x, inst.problem.b, impossible);
  EXPECT_TRUE(bad.residual_checked);
  EXPECT_FALSE(bad.converged);
  const auto snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
            1);
  EXPECT_EQ(snapshot.counters.at(
                "pbmg_solve_requests_total{outcome=\"unconverged\"}"),
            1);
}

TEST(HonestStats, AuditedAndPlainSolvesShareOneLatencySeries) {
  // The residual audit runs outside the timed window, so audited and
  // unaudited solves stay comparable and land in the same per-(n, acc)
  // latency histogram.
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Rng rng(13);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  SolveRequest request;
  request.accuracy_index = 0;
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  service.solve(x, inst.problem.b, request);
  request.residual.enabled = true;
  x.copy_from(inst.problem.x0);
  service.solve(x, inst.problem.b, request);
  const auto snapshot = service.metrics_snapshot();
  const std::string series = "pbmg_solve_latency_seconds{n=\"" +
                             std::to_string(n) + "\",acc=\"0\"}";
  EXPECT_EQ(snapshot.histograms.at(series).count, 2);
}

// --------------------------------------------------- request validation --

TEST(RequestValidation, DefaultRequestThrowsConfigError) {
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Grid2D x(n, 0.0), b(n, 0.0);
  // accuracy_index = -1 with target_accuracy = 0.0 selects nothing; the
  // old code fell through to accuracy_index(0.0)'s opaque failure.
  EXPECT_THROW(service.solve(x, b, SolveRequest{}), ConfigError);
}

TEST(RequestValidation, OutOfRangeIndexThrowsConfigError) {
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Grid2D x(n, 0.0), b(n, 0.0);
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count();  // one past the end
  EXPECT_THROW(service.solve(x, b, request), ConfigError);
  request.accuracy_index = trained().accuracy_count() + 40;
  EXPECT_THROW(service.solve(x, b, request), ConfigError);
  // Failures were counted; the service keeps serving.
  EXPECT_EQ(service.stats().failures, 2);
  request.accuracy_index = 0;
  EXPECT_NO_THROW(service.solve(x, b, request));
}

// ------------------------------------------------ generations & retune --

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ServiceDrift, InstallSwapsGenerationsAtomically) {
  SolveService service(engine(), trained());
  EXPECT_EQ(service.generation(), 1);
  const SessionRef old_session = service.session(size_of_level(3));

  service.install(trained());
  EXPECT_EQ(service.generation(), 2);
  EXPECT_EQ(service.stats().generation, 2);
  // The new generation binds fresh sessions; the old ref stays valid
  // (it pins its retired generation against reclaim).
  const SessionRef fresh = service.session(size_of_level(3));
  EXPECT_NE(old_session.get(), fresh.get());
  EXPECT_EQ(old_session->n(), size_of_level(3));

  // Post-swap solves carry the new generation id.
  const int n = size_of_level(3);
  Rng rng(21);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  SolveRequest request;
  request.accuracy_index = 0;
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  EXPECT_EQ(service.solve(x, inst.problem.b, request).generation, 2);
}

TEST(ServiceDrift, SwapIsRaceFreeUnderConcurrentSolves) {
  // Client threads hammer solve() while the main thread repeatedly
  // installs new generations.  Every solve must succeed and produce the
  // golden bits (identical config across generations ⇒ identical
  // arithmetic), whichever side of a swap it lands on.  TSan in CI
  // patrols the generation handoff itself.
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Rng rng(31);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count() - 1;
  Grid2D golden(n, 0.0);
  golden.copy_from(inst.problem.x0);
  service.solve(golden, inst.problem.b, request);

  constexpr int kClients = 4;
  constexpr int kSolvesPerClient = 24;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < kSolvesPerClient; ++r) {
        Grid2D x(n, 0.0);
        x.copy_from(inst.problem.x0);
        try {
          service.solve(x, inst.problem.b, request);
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!bitwise_equal(x, golden)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int swap = 0; swap < 6; ++swap) {
    service.install(trained());
    std::this_thread::yield();
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.generation(), 7);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kSolvesPerClient + 1);
  EXPECT_EQ(stats.failures, 0);
}

TEST(ServiceDrift, SustainedDriftTriggersBackgroundRetuneAndSwap) {
  // An implausibly fast baseline makes every real solve read as drifted —
  // a deterministic stand-in for a machine that degraded after tuning.
  // The watcher must fire once, run the retune callback on a background
  // thread, and install its result; the rebased baseline (generously slow,
  // so the verdict is deterministic) then keeps the new generation quiet.
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  obs::LatencyBaseline implausible;
  implausible.set(n, 0, snapshot_at(1e-7, 32));

  std::atomic<int> retune_calls{0};
  obs::DriftPolicy policy;
  policy.min_window_samples = 4;
  policy.sustained_windows = 2;
  service.enable_drift_watch(
      std::move(implausible), policy, [&]() -> SolveService::RetuneResult {
        retune_calls.fetch_add(1, std::memory_order_relaxed);
        // A real deployment calls tune::search_then_train here (which
        // measures an honest baseline); the test returns the same tables
        // with a slow synthetic baseline so the post-swap verdict cannot
        // depend on machine noise.
        SolveService::RetuneResult result;
        result.config = trained();
        result.baseline.set(n, 0, snapshot_at(1.0, 32));
        return result;
      });

  Rng rng(41);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  SolveRequest request;
  request.accuracy_index = 0;
  request.residual.enabled = true;  // drift samples are audited solves

  // 2 windows × 4 samples close against the implausible baseline and
  // fire; the background install may land at any point afterwards.
  Grid2D x(n, 0.0);
  for (int i = 0; i < 8; ++i) {
    x.copy_from(inst.problem.x0);
    service.solve(x, inst.problem.b, request);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(service.generation(), 2) << "background retune never installed";
  EXPECT_EQ(retune_calls.load(), 1);

  const auto mid = service.stats();
  EXPECT_EQ(mid.retunes, 1);
  EXPECT_GE(mid.drifted_windows, 2);

  // Post-swap: solves bind the new generation and, compared against the
  // generous baseline, never read as drifted again.
  for (int i = 0; i < 12; ++i) {
    x.copy_from(inst.problem.x0);
    EXPECT_EQ(service.solve(x, inst.problem.b, request).generation, 2);
  }
  EXPECT_EQ(service.stats().retunes, 1);
  EXPECT_EQ(service.stats().drifted_windows, mid.drifted_windows);

  const auto snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("pbmg_drift_retunes_total"), 1);
  EXPECT_GE(
      snapshot.counters.at("pbmg_drift_windows_total{verdict=\"drifted\"}"),
      2);
  EXPECT_EQ(snapshot.gauges.at("pbmg_config_generation"), 2.0);
  EXPECT_EQ(snapshot.gauges.at("pbmg_retune_in_progress"), 0.0);
}

TEST(ServiceDrift, StationaryServiceNeverRetunes) {
  // Baseline built from the service's own live latencies: replaying the
  // same workload against it must never fire (the self-consistency that
  // makes the watcher deployable).  Thresholds are loosened to 3× so CI
  // scheduling jitter on these microsecond solves cannot fake a drift.
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Rng rng(51);
  const auto inst = tune::make_training_instance(
      n, InputDistribution::kUnbiased, rng, engine().scheduler());
  SolveRequest request;
  request.accuracy_index = 0;

  obs::Histogram live;
  Grid2D x(n, 0.0);
  for (int i = 0; i < 32; ++i) {
    x.copy_from(inst.problem.x0);
    live.record(service.solve(x, inst.problem.b, request).seconds);
  }
  obs::LatencyBaseline baseline;
  baseline.set(n, 0, live.snapshot());

  std::atomic<int> retune_calls{0};
  obs::DriftPolicy policy;
  policy.p90_ratio = 3.0;
  policy.ks_threshold = 0.5;
  policy.min_window_samples = 8;
  policy.sustained_windows = 2;
  service.enable_drift_watch(std::move(baseline), policy,
                             [&]() -> SolveService::RetuneResult {
                               retune_calls.fetch_add(1);
                               return {trained(), {}, nullptr};
                             });
  for (int i = 0; i < 64; ++i) {
    x.copy_from(inst.problem.x0);
    service.solve(x, inst.problem.b, request);
  }
  EXPECT_EQ(retune_calls.load(), 0);
  EXPECT_EQ(service.generation(), 1);
  EXPECT_EQ(service.stats().retunes, 0);
}

}  // namespace
}  // namespace pbmg
