// Multi-client stress tests for the SolveService front-end: N client
// threads × M solves with mixed sizes and accuracies through one Engine,
// every concurrent result bit-checked against a serial golden run; plus
// session caching, failure accounting, and trim-under-load behaviour.

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/level.h"
#include "obs/phase_profile.h"
#include "solvers/multigrid.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

constexpr int kMaxLevel = 5;

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "service-test";
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
    options.seed = 9090;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

/// One stress case: a problem plus the request that solves it and the
/// golden (serial-engine) solution bits.
struct Case {
  PoissonProblem problem;
  SolveRequest request;
  Grid2D golden;
};

/// Mixed sizes (levels 3..kMaxLevel) × accuracies × V/FMG, goldens
/// computed on a dedicated single-threaded engine.
std::vector<Case> make_cases() {
  std::vector<Case> cases;
  Engine serial(rt::serial_profile());
  SolveService golden_service(serial, trained());
  Rng rng(777);
  const int m = trained().accuracy_count();
  for (int level = 3; level <= kMaxLevel; ++level) {
    const int n = size_of_level(level);
    for (int acc : {0, m / 2, m - 1}) {
      for (bool fmg : {false, true}) {
        Case c;
        c.problem = make_problem(n, InputDistribution::kUnbiased, rng);
        c.request.accuracy_index = acc;
        c.request.fmg = fmg;
        c.golden = Grid2D(n, 0.0);
        c.golden.copy_from(c.problem.x0);
        golden_service.solve(c.golden, c.problem.b, c.request);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SolveService, ConcurrentMixedSolvesMatchSerialRunsBitwise) {
  const auto cases = make_cases();
  SolveService service(engine(), trained());
  const auto before = service.stats();

  constexpr int kClients = 6;
  constexpr int kSolvesPerClient = 12;
  std::atomic<int> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < kSolvesPerClient; ++r) {
        // Every client walks the case list from its own offset, so at any
        // moment different sizes/accuracies are in flight concurrently.
        const Case& item =
            cases[static_cast<std::size_t>(c * 5 + r) % cases.size()];
        Grid2D x(item.problem.n(), 0.0);
        x.copy_from(item.problem.x0);
        service.solve(x, item.problem.b, item.request);
        if (!bitwise_equal(x, item.golden)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto after = service.stats();
  EXPECT_EQ(after.requests - before.requests, kClients * kSolvesPerClient);
  EXPECT_EQ(after.failures, before.failures);
  EXPECT_EQ(after.sessions, static_cast<std::size_t>(kMaxLevel - 2));
  EXPECT_GT(after.busy_seconds, before.busy_seconds);
  // The shared pool must have been serving (not growing unboundedly):
  // steady-state concurrent solves run almost entirely on recycled grids.
  EXPECT_GT(engine().scratch().stats().hit_rate(), 0.5);
}

TEST(SolveService, SessionsAreCachedPerSize) {
  SolveService service(engine(), trained());
  const SessionRef a = service.session(size_of_level(4));
  const SessionRef b = service.session(size_of_level(4));
  const SessionRef c = service.session(size_of_level(3));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(service.stats().sessions, 2u);
}

TEST(SolveService, TargetAccuracyRequestsResolveToLadderIndex) {
  SolveService service(engine(), trained());
  const int n = size_of_level(4);
  Rng rng(55);
  auto inst = tune::make_training_instance(n, InputDistribution::kUnbiased,
                                           rng, engine().scheduler());
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  SolveRequest request;
  request.target_accuracy = 1e5;  // no explicit index
  const SolveStats stats = service.solve(x, inst.problem.b, request);
  EXPECT_EQ(stats.accuracy_index, trained().accuracy_index(1e5));
  EXPECT_GE(tune::accuracy_of(inst, x, engine().scheduler()), 0.2 * 1e5);
}

TEST(SolveService, CountsFailuresAndKeepsServing) {
  SolveService service(engine(), trained());
  const int n = size_of_level(3);
  Grid2D x(n, 0.0), b(n, 0.0);
  SolveRequest bad;
  bad.accuracy_index = trained().accuracy_count() + 7;
  EXPECT_THROW(service.solve(x, b, bad), Error);
  EXPECT_EQ(service.stats().failures, 1);
  SolveRequest good;
  good.accuracy_index = 0;
  EXPECT_NO_THROW(service.solve(x, b, good));
  EXPECT_EQ(service.stats().requests, 1);
}

TEST(SolveService, AliasedIteratesAreRejectedAndSharedRhsIsNot) {
  // A batch slot's walk writes its iterate while every slot reads its
  // right-hand side, so an iterate that two slots share, or that is the
  // right-hand side, cannot match its solo solve.  Both are rejected for
  // V and FMG batches and for solo solves; a right-hand side shared by
  // distinct iterates stays legal.
  SolveService service(engine(), trained());
  Rng rng(4242);
  const PoissonProblem problem = make_problem(
      size_of_level(kMaxLevel), InputDistribution::kUnbiased, rng);
  for (const bool fmg : {false, true}) {
    SCOPED_TRACE(fmg ? "FMG" : "V");
    SolveRequest request;
    request.accuracy_index = 1;
    request.fmg = fmg;
    Grid2D x = problem.x0;
    const std::vector<Grid2D*> twice{&x, &x};
    EXPECT_THROW(service.solve_batch(twice, problem.b, request),
                 InvalidArgument);
    Grid2D b = problem.b;
    const std::vector<Grid2D*> into_rhs{&b};
    EXPECT_THROW(service.solve_batch(into_rhs, b, request), InvalidArgument);
    EXPECT_THROW(service.solve(b, b, request), InvalidArgument);
    Grid2D y = problem.x0;
    Grid2D z = problem.x0;
    Grid2D solo = problem.x0;
    const std::vector<Grid2D*> shared_rhs{&y, &z};
    service.solve_batch(shared_rhs, problem.b, request);
    service.solve(solo, problem.b, request);
    EXPECT_TRUE(bitwise_equal(y, solo));
    EXPECT_TRUE(bitwise_equal(z, solo));
  }
}

TEST(SolveService, TrimUnderLoadFreesMemoryAndServiceRecovers) {
  // A dedicated engine so pooled-byte accounting is not shared with the
  // other tests in this binary.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "service-trim";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(4);
  Rng rng(66);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count() - 1;
  Grid2D x(n, 0.0);
  x.copy_from(problem.x0);
  service.solve(x, problem.b, request);
  EXPECT_GT(local.scratch().pooled(), 0u);
  EXPECT_GT(service.trim(), 0u);  // idle shrink releases the free-list
  EXPECT_EQ(local.scratch().pooled(), 0u);
  // The service keeps working after the trim (pool refills as it runs).
  x.copy_from(problem.x0);
  service.solve(x, problem.b, request);
  EXPECT_EQ(service.stats().requests, 2);
  // A reference V-cycle always leases level temporaries (the tuned plan
  // may legitimately be lease-free, e.g. an all-Direct table), so drive
  // two on the session's ladder to watch the free-list re-stock.
  x.copy_from(problem.x0);
  const SessionRef bound = service.session(n);
  for (int cycle = 0; cycle < 2; ++cycle) {
    solvers::vcycle(bound->operators(), x, problem.b,
                    solvers::VCycleOptions{}, local.scheduler(),
                    local.direct(), local.scratch());
  }
  EXPECT_GT(local.scratch().pooled(), 0u);
  // Satellite telemetry: the trim shows up in ServiceStats (count + bytes)
  // and the sampled pool/scheduler gauges ride along.
  const auto stats = service.stats();
  EXPECT_EQ(stats.trims, 1);
  EXPECT_GT(stats.trim_bytes, 0);
  EXPECT_GT(stats.scratch_hit_rate, 0.0);
  EXPECT_LE(stats.scratch_hit_rate, 1.0);
  EXPECT_GE(stats.scheduler_steals, 0);
}

TEST(SolveService, MetricsSnapshotCountsEveryRequestPerSizeAndAccuracy) {
  Engine local([] {
    rt::MachineProfile p;
    p.name = "service-metrics";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  Rng rng(44);
  const int solves_small = 3;
  const int solves_big = 2;
  const auto drive = [&](int level, int count, int acc) {
    const int n = size_of_level(level);
    auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
    SolveRequest request;
    request.accuracy_index = acc;
    for (int i = 0; i < count; ++i) {
      Grid2D x(n, 0.0);
      x.copy_from(problem.x0);
      service.solve(x, problem.b, request);
    }
  };
  drive(3, solves_small, 0);
  drive(4, solves_big, 1);

  const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
  // Requests carry an outcome label whose series sum to *all* requests
  // (Prometheus `_total` convention): so far everything succeeded.
  EXPECT_EQ(snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
            solves_small + solves_big);
  EXPECT_EQ(snapshot.counters.at(
                "pbmg_solve_requests_total{outcome=\"unconverged\"}"),
            0);
  EXPECT_EQ(
      snapshot.counters.at("pbmg_solve_requests_total{outcome=\"error\"}"),
      0);
  EXPECT_EQ(snapshot.histograms.at("pbmg_solve_failure_seconds").count, 0);
  const std::string small_series =
      "pbmg_solve_latency_seconds{n=\"" + std::to_string(size_of_level(3)) +
      "\",acc=\"0\"}";
  const std::string big_series =
      "pbmg_solve_latency_seconds{n=\"" + std::to_string(size_of_level(4)) +
      "\",acc=\"1\"}";
  ASSERT_TRUE(snapshot.histograms.count(small_series));
  ASSERT_TRUE(snapshot.histograms.count(big_series));
  EXPECT_EQ(snapshot.histograms.at(small_series).count, solves_small);
  EXPECT_EQ(snapshot.histograms.at(big_series).count, solves_big);
  EXPECT_GT(snapshot.histograms.at(small_series).sum, 0.0);
  // Engine gauges are published into the same registry on snapshot.
  EXPECT_EQ(snapshot.gauges.at("pbmg_service_sessions"), 2.0);
  EXPECT_GT(snapshot.gauges.at("pbmg_service_busy_seconds"), 0.0);
  ASSERT_TRUE(snapshot.gauges.count("pbmg_scratch_hit_rate"));
  ASSERT_TRUE(snapshot.gauges.count("pbmg_scheduler_steals"));

  // A rejected request lands in the error-outcome request series (the one
  // failure counter) and the failure latency histogram — not the
  // per-(n, acc) success histograms.
  Grid2D x(size_of_level(3), 0.0), b(size_of_level(3), 0.0);
  SolveRequest bad;
  bad.accuracy_index = trained().accuracy_count() + 3;
  EXPECT_THROW(service.solve(x, b, bad), Error);
  const obs::RegistrySnapshot after = service.metrics_snapshot();
  EXPECT_EQ(
      after.counters.at("pbmg_solve_requests_total{outcome=\"error\"}"), 1);
  EXPECT_EQ(after.histograms.at("pbmg_solve_failure_seconds").count, 1);
  EXPECT_EQ(after.histograms.at(small_series).count, solves_small);
}

TEST(SolveService, UnconvergedSolvesLandInFailureHistogramNotHealthy) {
  // The per-(n, acc) latency histograms are the healthy-serving
  // distributions the drift watcher compares against; a solve that failed
  // its residual audit must be accounted with the failures
  // (pbmg_solve_failure_seconds), not mixed into them.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "service-unconverged";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(3);
  Rng rng(88);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = 0;
  request.residual.enabled = true;
  Grid2D x(n, 0.0);
  x.copy_from(problem.x0);
  ASSERT_TRUE(service.solve(x, problem.b, request).converged);

  // An impossible audit bound makes an otherwise-fine solve unconverged.
  request.residual.ratio_limit = 1e-300;
  x.copy_from(problem.x0);
  const SolveStats stats = service.solve(x, problem.b, request);
  ASSERT_FALSE(stats.converged);

  const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
  const std::string series = "pbmg_solve_latency_seconds{n=\"" +
                             std::to_string(n) + "\",acc=\"0\"}";
  EXPECT_EQ(snapshot.histograms.at(series).count, 1);  // only the healthy one
  EXPECT_EQ(snapshot.histograms.at("pbmg_solve_failure_seconds").count, 1);
  EXPECT_EQ(snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
            1);
  EXPECT_EQ(snapshot.counters.at(
                "pbmg_solve_requests_total{outcome=\"unconverged\"}"),
            1);
}

TEST(SolveService, TrimAfterInstallFreesRetiredGenerationsPool) {
  // Regression: trim() used to shrink only the LIVE generation's engine,
  // so after an install with a fresh engine the retired engine's prewarmed
  // pool stayed resident until process exit.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "service-retired-trim";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(4);
  Rng rng(99);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = 0;
  Grid2D x(n, 0.0);
  x.copy_from(problem.x0);
  service.solve(x, problem.b, request);
  ASSERT_GT(local.scratch().pooled(), 0u);

  // Pin the retiring generation so reclaim cannot free the pool for us —
  // the trim itself must reach the retired engine.
  const SessionRef pin = service.session(n);
  auto fresh_engine = std::make_shared<Engine>([] {
    rt::MachineProfile p;
    p.name = "service-retired-trim-gen2";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  service.install(trained(), {}, fresh_engine);
  ASSERT_GT(local.scratch().pooled(), 0u);  // retired pool still resident
  EXPECT_GT(service.trim(), 0u);
  EXPECT_EQ(local.scratch().pooled(), 0u);  // freed by the all-gen trim
}

TEST(SolveService, RetiredGenerationsAreReclaimedOnceUnpinned) {
  Engine local([] {
    rt::MachineProfile p;
    p.name = "service-reclaim";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(3);
  {
    const SessionRef pin = service.session(n);
    ASSERT_GT(service.stats().session_bytes, 0u);
    service.install(trained());
    service.trim();  // sweep runs, but the pin holds the retired gen
    EXPECT_EQ(service.stats().retired_generations, 1u);
    EXPECT_GT(service.stats().session_bytes, 0u);
    EXPECT_EQ(pin->n(), n);  // still fully usable while retired
  }
  service.trim();  // last pin dropped: the sweep reclaims the generation
  EXPECT_EQ(service.stats().retired_generations, 0u);
  EXPECT_EQ(service.stats().session_bytes, 0u);  // gen 2 has no sessions
}

TEST(SolveService, RequestProfileAttachesPhaseBreakdownToStats) {
  SolveService service(engine(), trained());
  const int n = size_of_level(4);
  Rng rng(77);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  Grid2D x(n, 0.0);
  x.copy_from(problem.x0);

  // Default request: profiling off, no phases attached.
  SolveRequest plain;
  plain.accuracy_index = trained().accuracy_count() - 1;
  EXPECT_EQ(service.solve(x, problem.b, plain).phases, nullptr);

  // Profiled request: the same shared profile comes back through stats and
  // accumulates across requests.
  SolveRequest profiled = plain;
  profiled.profile = std::make_shared<obs::PhaseProfile>();
  x.copy_from(problem.x0);
  const SolveStats first = service.solve(x, problem.b, profiled);
  ASSERT_NE(first.phases, nullptr);
  EXPECT_EQ(first.phases.get(), profiled.profile.get());
  const double after_one = first.phases->total_seconds();
  EXPECT_GT(after_one, 0.0);
  x.copy_from(problem.x0);
  service.solve(x, problem.b, profiled);
  EXPECT_GT(profiled.profile->total_seconds(), after_one);
  EXPECT_FALSE(profiled.profile->entries().empty());
}

}  // namespace
}  // namespace pbmg
