// Stress and failure-injection tests for the work-stealing runtime:
// randomised nested spawns, many concurrent groups, exception storms,
// concurrent callers sharing the caller slot, oversubscription, and
// profile edge cases.

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.h"
#include "support/error.h"
#include "support/rng.h"

namespace pbmg::rt {
namespace {

MachineProfile stress_profile(int threads) {
  MachineProfile p;
  p.name = "stress";
  p.threads = threads;
  p.grain_rows = 1;
  p.sequential_cutoff_cells = 1;
  return p;
}

TEST(SchedulerStress, RandomNestedParallelForsSumCorrectly) {
  Scheduler sched(stress_profile(8));
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    const std::int64_t outer = 1 + static_cast<std::int64_t>(rng.uniform_index(32));
    const std::int64_t inner = 1 + static_cast<std::int64_t>(rng.uniform_index(64));
    std::atomic<std::int64_t> total{0};
    sched.parallel_for(0, outer, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        sched.parallel_for(0, inner, 4, [&](std::int64_t b, std::int64_t e) {
          total.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
    ASSERT_EQ(total.load(), outer * inner) << "round " << round;
  }
}

TEST(SchedulerStress, ThreeLevelNestingDoesNotDeadlock) {
  Scheduler sched(stress_profile(4));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    sched.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
      sched.parallel_for(0, 16, 2, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 4 * 4 * 16);
}

TEST(SchedulerStress, ManyConcurrentGroupsFromExternalThread) {
  Scheduler sched(stress_profile(4));
  constexpr int kGroups = 16;
  constexpr int kTasksPerGroup = 64;
  std::vector<std::unique_ptr<TaskGroup>> groups;
  std::atomic<int> count{0};
  for (int g = 0; g < kGroups; ++g) {
    groups.push_back(std::make_unique<TaskGroup>());
    for (int t = 0; t < kTasksPerGroup; ++t) {
      sched.spawn(*groups.back(), [&count] { count.fetch_add(1); });
    }
  }
  for (auto& group : groups) sched.wait(*group);
  EXPECT_EQ(count.load(), kGroups * kTasksPerGroup);
}

TEST(SchedulerStress, ExceptionStormDeliversOnePerGroupAndSurvives) {
  Scheduler sched(stress_profile(4));
  for (int round = 0; round < 10; ++round) {
    TaskGroup group;
    for (int t = 0; t < 32; ++t) {
      sched.spawn(group, [t] {
        if (t % 2 == 0) throw NumericalError("boom " + std::to_string(t));
      });
    }
    EXPECT_THROW(sched.wait(group), NumericalError);
  }
  // Scheduler still healthy afterwards.
  std::atomic<int> ok{0};
  TaskGroup group;
  for (int t = 0; t < 100; ++t) sched.spawn(group, [&ok] { ok.fetch_add(1); });
  sched.wait(group);
  EXPECT_EQ(ok.load(), 100);
}

/// Thrown by a client's task, tagged so the test can tell whose it is.
struct ClientError : std::runtime_error {
  ClientError(int client_id, int round_id)
      : std::runtime_error("client task failed"),
        client(client_id),
        round(round_id) {}
  int client;
  int round;
};

TEST(SchedulerStress, ConcurrentCallersShareTheCallerSlot) {
  // Four client threads drive one 4-thread scheduler at once, all as slot 0:
  // nested parallel_for → parallel_reduce_sum → parallel_for regions, with
  // every third round throwing from one leaf, while another thread cycles
  // the active-thread limit through 1..4 (at 1 the clients are the only
  // executors and run each other's tasks).
  Scheduler sched(stress_profile(4));
  constexpr int kClients = 4;
  constexpr int kRounds = 24;
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 32;
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    int width = 1;
    while (!stop.load(std::memory_order_acquire)) {
      sched.set_active_workers(width);
      width = width % 4 + 1;
      std::this_thread::yield();
    }
  });
  std::vector<int> wrong_coverage(kClients, 0);
  std::vector<int> wrong_sum(kClients, 0);
  std::vector<int> missing_exception(kClients, 0);
  std::vector<int> foreign_exception(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const bool throws = (round + c) % 3 == 0;
        const std::int64_t bad = (round * 37 + c * 11) % (kOuter * kInner);
        std::vector<std::atomic<int>> hits(kOuter * kInner);
        try {
          sched.parallel_for(0, kOuter, 1, [&](std::int64_t ob,
                                               std::int64_t oe) {
            for (std::int64_t o = ob; o < oe; ++o) {
              const double sum = sched.parallel_reduce_sum(
                  0, kInner, 4, [&](std::int64_t b, std::int64_t e) {
                    sched.parallel_for(b, e, 1, [&](std::int64_t ib,
                                                    std::int64_t ie) {
                      for (std::int64_t i = ib; i < ie; ++i) {
                        const std::int64_t index = o * kInner + i;
                        hits[static_cast<std::size_t>(index)].fetch_add(1);
                        if (throws && index == bad) {
                          throw ClientError(c, round);
                        }
                      }
                    });
                    return static_cast<double>(e - b);
                  });
              if (sum != static_cast<double>(kInner)) ++wrong_sum[c];
            }
          });
          if (throws) ++missing_exception[c];
        } catch (const ClientError& e) {
          if (!throws || e.client != c || e.round != round) {
            ++foreign_exception[c];
          }
        }
        // A throwing leaf cuts its own chunk (and the enclosing ones) short,
        // so only clean rounds must cover everything; no index may ever run
        // twice.
        for (const auto& hit : hits) {
          const int count = hit.load();
          if (count > 1 || (!throws && count != 1)) ++wrong_coverage[c];
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  toggler.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(wrong_coverage[c], 0) << "client " << c;
    EXPECT_EQ(wrong_sum[c], 0) << "client " << c;
    EXPECT_EQ(missing_exception[c], 0) << "client " << c;
    EXPECT_EQ(foreign_exception[c], 0) << "client " << c;
  }
  // Healthy afterwards at full width.
  sched.set_active_workers(4);
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 1000, 8, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(SchedulerStress, OversubscribedPoolStillCorrect) {
  // More workers than cores: correctness must not depend on the ratio.
  Scheduler sched(stress_profile(48));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 10000, 8, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 10000);
}

TEST(SchedulerStress, RepeatedConstructionAndDestruction) {
  // Pools must come up and shut down cleanly even when work was pending
  // recently (worker threads parked or spinning).
  for (int round = 0; round < 12; ++round) {
    Scheduler sched(stress_profile(1 + round % 6));
    std::atomic<int> hits{0};
    TaskGroup group;
    for (int t = 0; t < 10; ++t) sched.spawn(group, [&hits] { hits++; });
    sched.wait(group);
    ASSERT_EQ(hits.load(), 10);
  }
}

TEST(SchedulerStress, ParallelReduceUnderContention) {
  Scheduler sched(stress_profile(8));
  // Sum of i^2 with tiny grain: maximum task churn.
  const std::int64_t n = 4096;
  const double result = sched.parallel_reduce_sum(
      0, n, 1, [](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) {
          acc += static_cast<double>(i) * static_cast<double>(i);
        }
        return acc;
      });
  const double expected =
      static_cast<double>(n - 1) * n * (2 * n - 1) / 6.0;
  EXPECT_DOUBLE_EQ(result, expected);
}

TEST(SchedulerStress, GrainForRespectsSequentialCutoff) {
  MachineProfile p = stress_profile(4);
  p.sequential_cutoff_cells = 1000;
  p.grain_rows = 8;
  Scheduler sched(p);
  // 10 rows x 50 cells = 500 <= cutoff: whole range as one grain.
  EXPECT_EQ(sched.grain_for(10, 50), 10);
  // 100 rows x 50 cells = 5000 > cutoff: profile grain.
  EXPECT_EQ(sched.grain_for(100, 50), 8);
  // Degenerate row counts stay positive.
  EXPECT_GE(sched.grain_for(0, 50), 1);

  // 10 rows x 50 cells x cost 4 = 2000 work units > cutoff, 500 cells.
  // Outside a solve the cost does not count: plain cells decide.
  EXPECT_EQ(sched.grain_for(10, 50, 4), 10);
  EXPECT_TRUE(sched.below_cutoff(10, 50, 4));
  {
    SolveScope solve;
    // A solve that has not forked yet still decides by plain cells, so a
    // solve whose grids all fit the cutoff never forks at all.
    EXPECT_EQ(sched.grain_for(10, 50, 4), 10);
    EXPECT_TRUE(sched.below_cutoff(10, 50, 4));
    // A region too small to split runs inline and marks nothing.
    sched.parallel_for(0, 4, 8, [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(sched.grain_for(10, 50, 4), 10);
    // The solve forks a region: from here its passes are priced by work.
    sched.parallel_for(0, 2, 1, [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(sched.grain_for(10, 50, 4), 8);
    EXPECT_FALSE(sched.below_cutoff(10, 50, 4));
    // Plain cells keep their answers (cost 1 is the Poisson unit).
    EXPECT_EQ(sched.grain_for(10, 50), 10);
    EXPECT_EQ(sched.grain_for(100, 50), 8);
    {
      // A nested scope joins the forked solve.
      SolveScope nested;
      EXPECT_EQ(sched.grain_for(10, 50, 4), 8);
    }
    EXPECT_EQ(sched.grain_for(10, 50, 4), 8);
    // The mark is the calling thread's: another thread's solve starts
    // over, even while this one is forked.
    std::int64_t other = 0;
    std::thread([&] {
      SolveScope elsewhere;
      other = sched.grain_for(10, 50, 4);
    }).join();
    EXPECT_EQ(other, 10);
  }
  // The scope ended: plain cells decide again.
  EXPECT_EQ(sched.grain_for(10, 50, 4), 10);
  {
    // A new solve starts unforked.
    SolveScope solve;
    EXPECT_EQ(sched.grain_for(10, 50, 4), 10);
  }
}

TEST(SchedulerStress, SpawnOverheadScalesWithProfileKnob) {
  MachineProfile slow = stress_profile(2);
  slow.spawn_overhead_ns = 100000;
  MachineProfile fast = stress_profile(2);
  fast.spawn_overhead_ns = 0;
  const auto time_spawns = [](Scheduler& sched) {
    TaskGroup group;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i) sched.spawn(group, [] {});
    const auto dt = std::chrono::steady_clock::now() - t0;
    sched.wait(group);
    return std::chrono::duration<double>(dt).count();
  };
  Scheduler sched_slow(slow);
  Scheduler sched_fast(fast);
  EXPECT_GT(time_spawns(sched_slow), time_spawns(sched_fast));
}

TEST(SchedulerStress, WorkDistributionReachesMultipleWorkers) {
  // With long-running leaf tasks, at least half the pool must participate
  // (validates that stealing spreads work, not just that results are
  // correct).
  Scheduler sched(stress_profile(8));
  std::atomic<std::uint64_t> worker_mask{0};
  std::atomic<int> counter{0};
  sched.parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    // Identify the executing worker via a per-thread hash.
    const auto id = std::hash<std::thread::id>{}(std::this_thread::get_id());
    worker_mask.fetch_or(std::uint64_t{1} << (id % 61));
    // Busy work so the region lasts long enough for thieves to engage.
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + i;
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 64);
  EXPECT_GE(__builtin_popcountll(worker_mask.load()), 3);
}

}  // namespace
}  // namespace pbmg::rt
