#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/machine_profile.h"
#include "support/rng.h"

/// \file scheduler.h
/// Work-stealing task scheduler.
///
/// This reproduces the PetaBricks runtime library described in §3.2.3 of
/// the paper: dynamic task scheduling over per-participant deques with a
/// task stealing protocol in the style of Cilk-5.  Owners push and pop at
/// the bottom of their own deque (depth-first, locality-friendly); idle
/// participants steal from the top of a random victim (breadth-first, load
/// balancing).
///
/// A scheduler built for T threads runs T participants, and the thread that
/// calls into it is one of them: slot 0 has a deque but no OS thread, and
/// the pool starts T − 1 workers for slots 1..T−1 (none when T = 1).  A
/// thread outside the pool that calls parallel_for, parallel_reduce_sum or
/// wait becomes slot 0 for the duration of the call: it splits its range
/// work-first like a worker, executes tasks until its group drains, and
/// blocks only when no task is left to take.  Concurrent callers share
/// slot 0.  So one caller's regions run on T threads, the paper's
/// thread-count semantics (Fig. 9), and a pool sized to the core count
/// keeps a single caller within the machine.  C concurrent callers whose
/// regions overlap add up to C + T − 1 threads executing tasks: each runs
/// any task it can take, its own or another caller's, until its own group
/// drains.  A blocked caller wakes only when its group drains (or, with
/// the pool throttled to one thread, when a task appears), so it does not
/// go on running other callers' tasks once it has blocked.
///
/// Tasks are grouped into TaskGroups; `Scheduler::wait` returns when a group
/// drains, and every participant that waits keeps executing tasks while
/// any are left, so nested parallelism (relaxations inside recursive
/// multigrid calls) composes without thread explosion.

namespace pbmg::rt {

class Scheduler;

/// Test-and-test-and-set spinlock for the worker deques.  Deque critical
/// sections are tens of nanoseconds; a futex-based std::mutex turns every
/// contended access into a syscall, which measures at hundreds of
/// microseconds of fork/join latency per parallel region.
class Spinlock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        // ISB stalls the pipeline briefly, the recommended aarch64
        // spin-wait (plain `yield` is a no-op on most cores).
        asm volatile("isb" ::: "memory");
#else
        // Unknown architecture: give the core away rather than burning it.
        std::this_thread::yield();
#endif
      }
    }
  }
  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Completion tracker for a set of spawned tasks.  A group may be waited on
/// exactly once per drain and can be reused after the wait returns.  The
/// first exception thrown by a task is captured and rethrown from wait().
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class Scheduler;

  void record_exception(std::exception_ptr e);

  std::atomic<std::int64_t> pending_{0};
  std::mutex exception_mutex_;
  std::exception_ptr first_exception_;
};

/// Work-stealing scheduler: a pool of threads − 1 workers plus the calling
/// thread.
class Scheduler {
 public:
  /// Chunk body for parallel loops: invoked as body(chunk_begin, chunk_end).
  using RangeBody = std::function<void(std::int64_t, std::int64_t)>;

  /// Chunk function for reductions: returns the partial sum of a chunk.
  using RangeSum = std::function<double(std::int64_t, std::int64_t)>;

  /// Creates `profile.threads` participant slots and starts
  /// `profile.threads − 1` worker threads; the caller of each parallel
  /// region is the remaining participant.  Throws InvalidArgument for a
  /// non-positive thread count.
  explicit Scheduler(const MachineProfile& profile);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Number of threads that execute a parallel region, the caller included
  /// (profile().threads).
  int thread_count() const { return static_cast<int>(slots_.size()); }

  /// Profile this scheduler was built from.
  const MachineProfile& profile() const { return profile_; }

  /// Spawns a task into `group`.  From a participant the task goes to its
  /// own deque; from any other thread it goes to slot 0, the callers'
  /// deque, where the pool steals it and wait() finds it.
  void spawn(TaskGroup& group, std::function<void()> fn);

  /// Waits for all tasks in `group` to complete, executing tasks meanwhile.
  /// A thread outside the pool takes part as slot 0 until the group drains
  /// and blocks only while no task is left to take; a pool thread never
  /// blocks.  Rethrows the first task exception.
  void wait(TaskGroup& group);

  /// Parallel loop over [begin, end): splits recursively until chunks are
  /// at most `grain` long and invokes body(chunk_begin, chunk_end) on each.
  /// The calling thread keeps the left half of every split and runs it.
  /// Runs inline when the range fits one grain or thread_count() is 1.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const RangeBody& body);

  /// Parallel sum-reduction over [begin, end): chunk_fn returns the partial
  /// sum of each `grain`-long chunk [begin + k·grain, begin + (k+1)·grain),
  /// and the partials are added in chunk order.  The chunks do not depend
  /// on the thread count, so the result is bitwise identical on every
  /// thread count and every run.
  double parallel_reduce_sum(std::int64_t begin, std::int64_t end,
                             std::int64_t grain, const RangeSum& chunk_fn);

  /// True when the calling thread executes for this scheduler: one of its
  /// workers, or a caller inside one of its parallel regions or waits.
  bool on_worker_thread() const;

  /// Grain for a row-sliced pass over `rows` rows of `cells_per_row`
  /// cells, each cell costing `cost_per_cell` units of work: applies the
  /// profile's parallel/sequential cutoff (a pass at or below it gets a
  /// grain spanning the whole range, i.e. runs inline) and its grain_rows
  /// otherwise.  The unit of work is one Poisson SOR cell update, the unit
  /// the cutoff was calibrated in, so a Poisson pass costs 1 per cell and
  /// a variable-coefficient pass passes its kind's weight times its batch
  /// size (grid/grid_ops.h).
  ///
  /// The cost counts only inside a solve that has already forked a region
  /// (SolveScope): until then the pass is measured by its plain cell
  /// count, rows × cells_per_row, as outside any solve.  So a solve whose
  /// grids are all small enough to run inline still runs every pass
  /// inline and wakes no worker, while a solve that already has the pool
  /// awake forks its coarse passes by the work they carry.  Priced from
  /// the first pass, three clients of n <= 129 requests on four cores lost
  /// 12–31% throughput: each fork woke parked workers, which then spun
  /// (kWorkerSpin) beside the other clients' inline requests.
  std::int64_t grain_for(std::int64_t rows, std::int64_t cells_per_row,
                         std::int64_t cost_per_cell = 1) const;

  /// True when grain_for would run this pass inline by the cutoff, for a
  /// kernel that slices its range its own way once it forks.
  bool below_cutoff(std::int64_t rows, std::int64_t cells_per_row,
                    std::int64_t cost_per_cell = 1) const;

  /// Total number of successful steals since construction (observability;
  /// used by tests to verify stealing actually happens).
  std::int64_t steal_count() const {
    return steal_count_.load(std::memory_order_relaxed);
  }

  /// Limits how many participant slots execute tasks, the callers' slot 0
  /// included (clamped to [1, thread_count()]), so one caller's regions run
  /// on `count` threads.  Workers at slot >= `count` park until the limit
  /// is raised again, and a worker that finds itself throttled right after
  /// taking a task hands it back; tasks in a parked worker's deque remain
  /// stealable, so nothing is lost or stalled — the pool just runs
  /// narrower.  `count = 1` leaves the caller running
  /// its regions alone.  This deliberately models a machine whose effective
  /// core count shrank under the service (noisy neighbours, thermal
  /// throttling, a resized container): the drift bench and tests use it to
  /// degrade latency mid-run without rebuilding the engine.  Thread-safe.
  void set_active_workers(int count);

  /// Current active-thread limit (thread_count() unless throttled).
  int active_workers() const {
    return active_workers_.load(std::memory_order_acquire);
  }

 private:
  struct Task {
    /// Allocation-free fast path used by parallel_for's range splitting:
    /// a plain function pointer plus context, avoiding one heap-allocated
    /// std::function per split (which would be freed cross-thread and
    /// serialise on the allocator).
    using RangeFn = void (*)(void* context, std::int64_t begin,
                             std::int64_t end);
    RangeFn range_fn = nullptr;
    void* context = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    /// General path for Scheduler::spawn.
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// One participant's deque: slot 0 belongs to the callers, slots
  /// 1..thread_count()−1 to the workers.
  struct Slot {
    std::deque<Task> deque;
    Spinlock lock;
    /// Lock-free occupancy hint: lets idle thieves skip empty victims
    /// without touching `lock`, so spinning participants do not contend
    /// with the owner's push/pop traffic.
    std::atomic<int> approx_size{0};
  };

  void worker_main(int slot);
  bool try_pop_local(int slot, Task& out);
  bool try_steal(int thief_slot, Task& out);
  bool try_acquire_task(int slot, Task& out);
  void execute(Task task);
  void push_task(int slot, Task task);
  bool task_ready() const;
  void spawn_range(TaskGroup& group, Task::RangeFn fn, void* context,
                   std::int64_t begin, std::int64_t end);
  void help_until_drained(TaskGroup& group);
  void block_caller(TaskGroup& group);
  void notify(std::condition_variable& cv);
  void inject_spawn_overhead() const;

  MachineProfile profile_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_workers_{0};  // set to thread_count() in the ctor
  /// Idle workers asleep on worker_cv_: a push wakes them.
  std::atomic<int> sleeping_workers_{0};
  /// Callers asleep on caller_cv_ until their group drains: a drain wakes
  /// them, and so does a push while the limit is 1.
  std::atomic<int> blocked_callers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable worker_cv_;
  std::condition_variable caller_cv_;
  std::atomic<std::int64_t> steal_count_{0};
};

/// Marks the calling thread's work, for the scope's lifetime, as one
/// solve for Scheduler::grain_for: the solve starts out pricing passes by
/// their plain cell count, and from the first region it forks on any
/// scheduler (a parallel_for that splits its range) it prices them by
/// their work.  The mark lives in the calling thread, beside its
/// scheduler identity, so concurrent solves on other threads never see
/// it.  tune::TunedExecutor's public entry points open one per call; a
/// scope opened while the thread is already inside one joins that solve.
class SolveScope {
 public:
  SolveScope();
  ~SolveScope();
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

 private:
  bool outermost_;
};

}  // namespace pbmg::rt
