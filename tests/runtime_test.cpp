// Tests for the work-stealing scheduler: coverage of parallel_for and
// parallel_reduce, deterministic reductions, nested parallelism, exception
// propagation, stealing, the caller's participation, machine profiles, and
// the Spinlock primitive.

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/machine_profile.h"
#include "runtime/scheduler.h"
#include "support/error.h"

namespace pbmg::rt {
namespace {

MachineProfile test_profile(int threads, int grain = 1) {
  MachineProfile p;
  p.name = "test";
  p.threads = threads;
  p.grain_rows = grain;
  return p;
}

TEST(Scheduler, RejectsNonPositiveThreadCount) {
  MachineProfile p = test_profile(0);
  EXPECT_THROW(Scheduler s(p), InvalidArgument);
}

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    Scheduler sched(test_profile(threads));
    constexpr std::int64_t kN = 10007;
    std::vector<std::atomic<int>> hits(kN);
    sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(Scheduler, ParallelForHandlesEmptyAndTinyRanges) {
  Scheduler sched(test_profile(4));
  int calls = 0;
  sched.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  sched.parallel_for(3, 4, 10, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(Scheduler, ParallelForRespectsGrainAsLeafUpperBound) {
  Scheduler sched(test_profile(4));
  std::atomic<bool> oversized{false};
  sched.parallel_for(0, 1000, 32, [&](std::int64_t b, std::int64_t e) {
    if (e - b > 32) oversized.store(true);
  });
  EXPECT_FALSE(oversized.load());
}

TEST(Scheduler, ParallelReduceSumMatchesSerial) {
  Scheduler sched(test_profile(8));
  constexpr std::int64_t kN = 100000;
  const double parallel = sched.parallel_reduce_sum(
      0, kN, 64, [](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) acc += static_cast<double>(i);
        return acc;
      });
  const double expected =
      static_cast<double>(kN - 1) * static_cast<double>(kN) / 2.0;
  EXPECT_DOUBLE_EQ(parallel, expected);
}

TEST(Scheduler, ParallelReduceSumIsBitwiseIdenticalAcrossThreadCounts) {
  // Non-integer terms of mixed magnitude, so any change in how partial sums
  // are grouped or ordered shows in the last bits.
  const auto chunk_sum = [](std::int64_t b, std::int64_t e) {
    double acc = 0.0;
    for (std::int64_t i = b; i < e; ++i) {
      acc += std::sin(0.37 * static_cast<double>(i)) /
             (1.0 + 1e-3 * static_cast<double>(i));
    }
    return acc;
  };
  constexpr std::int64_t kN = 20011;
  constexpr std::int64_t kGrain = 37;
  const double reference =
      Scheduler(test_profile(1)).parallel_reduce_sum(0, kN, kGrain, chunk_sum);
  for (int threads : {1, 2, 4, 8}) {
    Scheduler sched(test_profile(threads));
    for (int repeat = 0; repeat < 20; ++repeat) {
      const double sum = sched.parallel_reduce_sum(0, kN, kGrain, chunk_sum);
      ASSERT_EQ(std::memcmp(&sum, &reference, sizeof(double)), 0)
          << "threads " << threads << " repeat " << repeat << ": " << sum
          << " vs " << reference;
    }
  }
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock) {
  Scheduler sched(test_profile(4));
  std::atomic<std::int64_t> total{0};
  sched.parallel_for(0, 16, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      sched.parallel_for(0, 64, 4, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(Scheduler, TaskExceptionPropagatesToWaiter) {
  Scheduler sched(test_profile(4));
  EXPECT_THROW(
      sched.parallel_for(0, 100, 1,
                         [&](std::int64_t b, std::int64_t) {
                           if (b == 50) throw NumericalError("boom");
                         }),
      NumericalError);
  // The scheduler must stay usable afterwards.
  std::atomic<std::int64_t> sum{0};
  sched.parallel_for(0, 10, 1,
                     [&](std::int64_t b, std::int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 10);
}

TEST(Scheduler, SpawnAndWaitRunsEveryTask) {
  Scheduler sched(test_profile(4));
  TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    sched.spawn(group, [&] { count.fetch_add(1); });
  }
  sched.wait(group);
  EXPECT_EQ(count.load(), 200);
}

TEST(Scheduler, TaskGroupIsReusableAfterWait) {
  Scheduler sched(test_profile(2));
  TaskGroup group;
  std::atomic<int> count{0};
  sched.spawn(group, [&] { count.fetch_add(1); });
  sched.wait(group);
  sched.spawn(group, [&] { count.fetch_add(1); });
  sched.wait(group);
  EXPECT_EQ(count.load(), 2);
}

TEST(Scheduler, StealsHappenUnderImbalance) {
  Scheduler sched(test_profile(4));
  // One external submission chain creates deep imbalance; with multiple
  // workers the only way other threads obtain work is stealing.  On a
  // machine with fewer cores than workers a single round can complete
  // before any other worker is scheduled, so repeat until a steal lands.
  for (int round = 0; round < 50 && sched.steal_count() == 0; ++round) {
    std::atomic<std::int64_t> sum{0};
    sched.parallel_for(0, 1 << 14, 1, [&](std::int64_t b, std::int64_t e) {
      volatile double sink = 0.0;
      for (std::int64_t i = b; i < e; ++i) {
        sink = sink + static_cast<double>(i);
      }
      sum.fetch_add(e - b);
    });
    ASSERT_EQ(sum.load(), 1 << 14);
  }
  EXPECT_GT(sched.steal_count(), 0);
}

TEST(Scheduler, OnWorkerThreadDetection) {
  Scheduler sched(test_profile(2));
  EXPECT_FALSE(sched.on_worker_thread());
  std::atomic<bool> inside{false};
  TaskGroup group;
  sched.spawn(group, [&] { inside.store(sched.on_worker_thread()); });
  sched.wait(group);
  EXPECT_TRUE(inside.load());
}

TEST(Scheduler, CallerTakesPartAndRestoresItsIdentity) {
  // The caller is a participant while it is inside a region (so chunks it
  // runs, and nested regions it drives on another scheduler, see the right
  // identity) and an outsider again once the region returns.
  Scheduler a(test_profile(2));
  Scheduler b(test_profile(2));
  std::atomic<int> outside_a{0};
  std::atomic<int> outside_b{0};
  std::atomic<int> not_restored{0};
  a.parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    if (!a.on_worker_thread()) outside_a.fetch_add(1);
    b.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
      if (!b.on_worker_thread()) outside_b.fetch_add(1);
    });
    if (!a.on_worker_thread() || b.on_worker_thread()) {
      not_restored.fetch_add(1);
    }
  });
  EXPECT_EQ(outside_a.load(), 0);
  EXPECT_EQ(outside_b.load(), 0);
  EXPECT_EQ(not_restored.load(), 0);
  EXPECT_FALSE(a.on_worker_thread());
  EXPECT_FALSE(b.on_worker_thread());
}

TEST(Scheduler, SingleThreadSchedulerRunsTasksOnTheCaller) {
  // threads = 1 starts no worker: spawned tasks run on the thread that
  // waits for them.
  Scheduler sched(test_profile(1));
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  TaskGroup group;
  for (int i = 0; i < 50; ++i) {
    sched.spawn(group, [&] {
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    });
  }
  sched.wait(group);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(Scheduler, SingleThreadRunsInline) {
  Scheduler sched(test_profile(1));
  std::int64_t sum = 0;  // no atomics needed: everything runs inline
  sched.parallel_for(0, 1000, 10,
                     [&](std::int64_t b, std::int64_t e) { sum += e - b; });
  EXPECT_EQ(sum, 1000);
}

TEST(Scheduler, SpawnOverheadInjectionSlowsSpawns) {
  MachineProfile slow = test_profile(2);
  slow.spawn_overhead_ns = 200000;  // 0.2 ms per spawn, easily measurable
  Scheduler sched(slow);
  TaskGroup group;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) sched.spawn(group, [] {});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  sched.wait(group);
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 20 * 0.0002 * 0.5);
}

// ------------------------------------------------------------ profiles --

TEST(Scheduler, ActiveWorkerThrottleNarrowsAndRestoresThePool) {
  Scheduler sched(test_profile(4));
  EXPECT_EQ(sched.active_workers(), 4);

  // Throttled to one worker, every index must still be covered exactly
  // once — parked workers' tasks stay stealable, nothing is lost.
  sched.set_active_workers(1);
  EXPECT_EQ(sched.active_workers(), 1);
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }

  // Out-of-range requests clamp instead of throwing: the throttle models
  // a degraded machine, and a watchdog poking it must never kill the pool.
  sched.set_active_workers(0);
  EXPECT_EQ(sched.active_workers(), 1);
  sched.set_active_workers(99);
  EXPECT_EQ(sched.active_workers(), 4);

  // Restored pool still covers ranges (workers woke back up).
  std::vector<std::atomic<int>> again(kN);
  sched.parallel_for(0, kN, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      again[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(again[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ThrottledToOneRunsEveryChunkOnTheCaller) {
  // set_active_workers counts the caller: at 1 the pool's workers are
  // parked and the caller runs its whole region itself.
  Scheduler sched(test_profile(4));
  sched.set_active_workers(1);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> chunks{0};
    std::atomic<int> elsewhere{0};
    sched.parallel_for(0, 512, 1, [&](std::int64_t, std::int64_t) {
      chunks.fetch_add(1);
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    });
    ASSERT_EQ(chunks.load(), 512) << "round " << round;
    ASSERT_EQ(elsewhere.load(), 0) << "round " << round;
  }
  sched.set_active_workers(4);
}

TEST(Scheduler, ThrottleTogglesUnderConcurrentLoadWithoutLosingWork) {
  // Race the throttle against live parallel work: a driver thread flips
  // the active-worker limit while parallel_for regions run.  Every index
  // must be covered exactly once regardless of where the toggles land.
  Scheduler sched(test_profile(4));
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    int width = 1;
    while (!stop.load(std::memory_order_acquire)) {
      sched.set_active_workers(width);
      width = width == 1 ? 4 : 1;
      std::this_thread::yield();
    }
  });
  constexpr std::int64_t kN = 2048;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kN);
    sched.parallel_for(0, kN, 8, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  toggler.join();
  sched.set_active_workers(4);
}

TEST(MachineProfile, PresetsAreDistinctAndValid) {
  const auto names = profile_names();
  EXPECT_GE(names.size(), 4u);
  for (const auto& name : names) {
    const MachineProfile p = profile_by_name(name);
    EXPECT_GE(p.threads, 1) << name;
    EXPECT_GE(p.grain_rows, 1) << name;
  }
  EXPECT_THROW(profile_by_name("cray-1"), InvalidArgument);
  // The three paper testbeds must differ in scheduling character.
  const MachineProfile a = harpertown_profile();
  const MachineProfile b = barcelona_profile();
  const MachineProfile c = niagara_profile();
  EXPECT_NE(a.grain_rows, b.grain_rows);
  EXPECT_NE(b.spawn_overhead_ns, c.spawn_overhead_ns);
}

TEST(MachineProfile, DefaultThreadCountIsTheCoreCount) {
  EXPECT_EQ(MachineProfile{}.threads, hardware_threads());
  EXPECT_EQ(profile_by_name("default").threads, hardware_threads());
}

TEST(MachineProfile, SerialProfileNeverSplits) {
  Scheduler sched(serial_profile());
  EXPECT_EQ(sched.thread_count(), 1);
}

TEST(Spinlock, MutualExclusionUnderContention) {
  Spinlock lock;
  std::int64_t counter = 0;  // deliberately unsynchronized except via lock
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(Spinlock, TryLockReportsContention) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());  // already held
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace pbmg::rt
