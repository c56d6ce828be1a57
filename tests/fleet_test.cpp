// Fleet-serving suite: the byte-budgeted cache of sessions and routed
// bindings (LRU eviction, SessionRef pinning, retired-generation reclaim)
// and the batched multi-RHS solve path.  Eviction must never destroy a
// pinned session, an evicted size or operator must rebind to
// bit-identical solves, a routed-operator storm must stay under the byte
// budget, solve_batch must bitwise-match K solo solves under any thread
// count, and binds / batches / installs / trims must be race-free under
// concurrent clients (this suite runs under TSan, ASan and UBSan in CI).

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

constexpr int kMaxLevel = 4;

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "fleet-test";
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
    options.seed = 1313;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Footprint of one bound session of side `n` under the trained config,
/// measured on a throwaway unlimited service.
std::size_t session_footprint(int n) {
  SolveService probe(engine(), trained());
  return probe.session(n)->footprint_bytes();
}

// ---------------------------------------------------------- eviction --

TEST(FleetCache, ByteBudgetBoundsResidentSessions) {
  const std::size_t biggest = session_footprint(size_of_level(kMaxLevel));
  ServicePolicy policy;
  policy.max_session_bytes = biggest + biggest / 10;  // room for one big only
  SolveService service(engine(), trained(), policy);
  // Bind every size, largest last; unpinned smaller sessions must be
  // evicted to keep the resident bytes bounded.
  for (int level = 2; level <= kMaxLevel; ++level) {
    service.session(size_of_level(level));
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.session_bytes, policy.max_session_bytes);
  EXPECT_LT(stats.sessions, static_cast<std::size_t>(kMaxLevel - 1));
}

TEST(FleetCache, SessionCountCapEvictsLeastRecentlyUsed) {
  ServicePolicy policy;
  policy.max_sessions = 2;
  SolveService service(engine(), trained(), policy);
  service.session(size_of_level(2));
  service.session(size_of_level(3));
  // Touch level 2 so level 3 is the LRU victim when level 4 binds.
  service.session(size_of_level(2));
  service.session(size_of_level(4));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.evictions, 1);
  // The victim must have been level 3 (stale), not the just-touched
  // level 2 (which a key-ordered sweep would have picked first): level 2
  // is still cached, so re-binding it inserts nothing and evicts nothing.
  service.session(size_of_level(2));
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 1);
}

TEST(FleetCache, PinnedSessionsAreNeverEvicted) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  SessionRef small = service.session(size_of_level(2));
  SessionRef mid = service.session(size_of_level(3));
  // Both pinned: the cap is unenforceable and the cache must prefer
  // overshooting the budget to destroying a session in use.
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 0);
  EXPECT_EQ(small->n(), size_of_level(2));
  EXPECT_EQ(mid->n(), size_of_level(3));
  // Dropping one pin makes it evictable; the next bind drains the cache
  // back toward the cap and the still-pinned session survives.
  small = SessionRef();
  const SessionRef big = service.session(size_of_level(4));
  EXPECT_GT(service.stats().evictions, 0);
  EXPECT_EQ(mid->n(), size_of_level(3));  // pinned ⇒ alive and usable
}

TEST(FleetCache, EvictedSizeRebindsToBitIdenticalSolves) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  const int n = size_of_level(3);
  Rng rng(505);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count() - 1;
  Grid2D first(n, 0.0);
  first.copy_from(problem.x0);
  service.solve(first, problem.b, request);
  // Evict the size by binding another, then rebind: the fresh session
  // must reproduce the retired one's arithmetic exactly.
  service.session(size_of_level(4));
  ASSERT_GT(service.stats().evictions, 0);
  Grid2D second(n, 0.0);
  second.copy_from(problem.x0);
  service.solve(second, problem.b, request);
  EXPECT_TRUE(bitwise_equal(first, second));
}

// ------------------------------------------------------ routed entries --

/// Footprint of one routed binding of a jump operator at side `n`, read
/// as the resident bytes of a throwaway unlimited service after one
/// routed request.
std::size_t routed_footprint(int n) {
  SolveService probe(engine(), trained());
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  Rng rng(1);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 1e3;
  Grid2D x(n, 0.0);
  x.copy_from(problem.x0);
  probe.solve_op(op, x, problem.b, request);
  return probe.stats().session_bytes;
}

TEST(FleetCache, RoutedOperatorStormStaysUnderTheByteBudget) {
  // Every distinct operator identity is its own routed binding.  Those
  // bindings share the session budget: a storm of operators the service
  // has never seen must evict, not accumulate.
  const int n = size_of_level(kMaxLevel);
  const std::size_t one = routed_footprint(n);
  ASSERT_GT(one, 0u);
  ServicePolicy policy;
  policy.max_session_bytes = 2 * one;
  SolveService service(engine(), trained(), policy);
  constexpr int kOperators = 24;
  std::vector<grid::StencilOp> ops;
  for (int i = 0; i < kOperators; ++i) {
    ops.push_back(make_operator(n, OperatorFamily::kJumpCoefficient));
  }
  ASSERT_NE(ops[0].identity(), ops[1].identity());
  Rng rng(909);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 1e3;

  constexpr int kClients = 4;
  std::atomic<int> unconverged{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kOperators; ++i) {
        Grid2D x(n, 0.0);
        x.copy_from(problem.x0);
        const SolveStats stats = service.solve_op(
            ops[(c * kOperators / kClients + i) % kOperators], x, problem.b,
            request);
        if (!stats.converged) unconverged.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(unconverged.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.routed_requests, kClients * kOperators);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.session_bytes, policy.max_session_bytes);
}

TEST(FleetCache, EvictedRoutedOperatorRebindsToBitIdenticalSolves) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  const int n = size_of_level(kMaxLevel);
  const grid::StencilOp op =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  Rng rng(910);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 1e3;
  Grid2D first(n, 0.0);
  first.copy_from(problem.x0);
  service.solve_op(op, first, problem.b, request);
  // A session bind evicts the routed binding (one entry allowed); the
  // rebind must reproduce the evicted binding's arithmetic exactly.
  service.session(size_of_level(3));
  ASSERT_EQ(service.stats().evictions, 1);
  Grid2D second(n, 0.0);
  second.copy_from(problem.x0);
  service.solve_op(op, second, problem.b, request);
  EXPECT_EQ(service.stats().evictions, 2);  // the rebind evicted the session
  EXPECT_TRUE(bitwise_equal(first, second));
}

// ------------------------------------------------------ batched solves --

TEST(FleetBatch, BatchBitwiseMatchesSoloAcrossThreadCounts) {
  constexpr int kBatch = 4;
  for (const int threads : {1, 4}) {
    Engine local([threads] {
      rt::MachineProfile p;
      p.name = "fleet-batch-" + std::to_string(threads) + "t";
      p.threads = threads;
      p.grain_rows = 4;
      return p;
    }());
    SolveService service(local, trained());
    const int n = size_of_level(kMaxLevel);
    Rng rng(606);
    auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
    for (const bool fmg : {false, true}) {
      SolveRequest request;
      request.accuracy_index = 0;
      request.fmg = fmg;
      Grid2D solo(n, 0.0);
      solo.copy_from(problem.x0);
      service.solve(solo, problem.b, request);

      std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
      std::vector<Grid2D*> xs;
      for (auto& x : batch) {
        x.copy_from(problem.x0);
        xs.push_back(&x);
      }
      const std::vector<SolveStats> stats =
          service.solve_batch(xs, problem.b, request);
      ASSERT_EQ(stats.size(), static_cast<std::size_t>(kBatch));
      for (int k = 0; k < kBatch; ++k) {
        EXPECT_TRUE(bitwise_equal(batch[k], solo))
            << "threads=" << threads << " fmg=" << fmg << " slot=" << k;
        EXPECT_EQ(stats[k].iterations, stats[0].iterations);
        EXPECT_EQ(stats[k].generation, 1);
      }
    }
  }
}

TEST(FleetBatch, BatchAccountingCountsEveryRhsAndOneLatencySample) {
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-batch-metrics";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(3);
  Rng rng(707);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = 0;
  constexpr int kBatch = 3;
  std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
  std::vector<Grid2D*> xs;
  for (auto& x : batch) {
    x.copy_from(problem.x0);
    xs.push_back(&x);
  }
  service.solve_batch(xs, problem.b, request);
  EXPECT_EQ(service.stats().requests, kBatch);
  const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
            kBatch);
  // One wall-clock, one healthy latency sample — K per-RHS samples would
  // overcount the histogram the drift watcher reads.
  const std::string series = "pbmg_solve_latency_seconds{n=\"" +
                             std::to_string(n) + "\",acc=\"0\"}";
  EXPECT_EQ(snapshot.histograms.at(series).count, 1);
  ASSERT_TRUE(snapshot.histograms.count("pbmg_batch_size"));
  EXPECT_EQ(snapshot.histograms.at("pbmg_batch_size").count, 1);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("pbmg_batch_size").sum, kBatch);
}

// ---------------------------------------------------------------- races --

TEST(FleetRace, BindsBatchesInstallsAndTrimsAreRaceFree) {
  // Client threads bind, solve, and batch under a byte budget tight
  // enough to force continuous eviction, while the main thread installs
  // fresh generations and trims.  Identical configs across generations
  // mean every result must still carry the golden bits — and TSan in CI
  // patrols the cache bookkeeping itself.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-race";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  ServicePolicy policy;
  policy.max_sessions = 1;  // every size change evicts
  SolveService service(local, trained(), policy);

  struct Golden {
    PoissonProblem problem;
    Grid2D bits;
  };
  std::vector<Golden> goldens;
  {
    Engine serial(rt::serial_profile());
    SolveService golden_service(serial, trained());
    Rng rng(808);
    for (int level = 2; level <= kMaxLevel; ++level) {
      const int n = size_of_level(level);
      Golden g{make_problem(n, InputDistribution::kUnbiased, rng),
               Grid2D(n, 0.0)};
      g.bits.copy_from(g.problem.x0);
      SolveRequest request;
      request.accuracy_index = 0;
      golden_service.solve(g.bits, g.problem.b, request);
      goldens.push_back(std::move(g));
    }
  }

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 8;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SolveRequest request;
      request.accuracy_index = 0;
      for (int i = 0; i < kItersPerClient; ++i) {
        const Golden& g = goldens[(c + i) % goldens.size()];
        const int n = g.bits.n();
        if ((c + i) % 2 == 0) {
          Grid2D x(n, 0.0);
          x.copy_from(g.problem.x0);
          service.solve(x, g.problem.b, request);
          if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
        } else {
          std::vector<Grid2D> batch(3, Grid2D(n, 0.0));
          std::vector<Grid2D*> xs;
          for (auto& x : batch) {
            x.copy_from(g.problem.x0);
            xs.push_back(&x);
          }
          service.solve_batch(xs, g.problem.b, request);
          for (const Grid2D& x : batch) {
            if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread swapper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      service.install(trained());
      service.trim();
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.requests, kClients * kItersPerClient * 2);  // 1 or 3 RHS
  // After the storm every generation but the live one is unpinned; one
  // more trim reclaims them all.
  service.trim();
  EXPECT_EQ(service.stats().retired_generations, 0u);
}

}  // namespace
}  // namespace pbmg
