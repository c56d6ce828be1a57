#include "runtime/scheduler.h"

#include <algorithm>
#include <chrono>

#include "support/error.h"

namespace pbmg::rt {

namespace {

// The scheduler the current thread executes for, and its participant slot
// there: a worker's for its lifetime, a caller's (slot 0) while it is inside
// one of the scheduler's parallel regions or waits.
thread_local const Scheduler* tls_scheduler = nullptr;
thread_local int tls_slot = -1;

// The calling thread's solve (SolveScope): none, one whose regions have
// all run inline so far, or one that has forked a region.
enum class SolveState : unsigned char { kNone, kInline, kForked };
thread_local SolveState tls_solve = SolveState::kNone;

// Idle-spin budgets, in wall time because one pause costs anywhere from a
// few to over a hundred cycles depending on the CPU.  An idle worker spins
// this long before sleeping: multigrid issues bursts of parallel regions
// (one per sweep per level) separated by serial glue (coarse levels, the
// direct solve, request bookkeeping), and waking a sleeping thread costs
// tens of microseconds on bare metal and up to milliseconds on a virtual
// machine whose host is busy, since the idle vCPU halts.
constexpr std::chrono::microseconds kWorkerSpin{2000};
// A caller whose group is still running elsewhere spins this long before it
// blocks: the last leaf tasks of a region normally finish well within it,
// and a block costs the same wake-up.
constexpr std::chrono::microseconds kCallerSpin{500};
// Pause rounds between clock reads while spinning; a steady_clock read costs
// about two pauses.
constexpr int kRoundsPerClockRead = 32;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// One idle episode's spin: spin() pauses once, or returns false (ending the
// episode) when the budget since the episode's first spin() is spent;
// reset() ends the episode early, when work turned up.
class IdleSpin {
 public:
  explicit IdleSpin(std::chrono::microseconds budget) : budget_(budget) {}

  bool spin() {
    if (rounds_++ == 0) {
      start_ = std::chrono::steady_clock::now();
    } else if (rounds_ % kRoundsPerClockRead == 0 &&
               std::chrono::steady_clock::now() - start_ >= budget_) {
      rounds_ = 0;
      return false;
    }
    cpu_relax();
    return true;
  }

  void reset() { rounds_ = 0; }

 private:
  std::chrono::microseconds budget_;
  std::int64_t rounds_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// Makes a thread outside `sched` its participant slot 0 for the scope's
// lifetime and restores the thread's previous identity (none, or a slot of
// another scheduler) on exit.  A thread already executing for `sched` keeps
// its slot.
class CallerScope {
 public:
  explicit CallerScope(const Scheduler* sched)
      : previous_scheduler_(tls_scheduler), previous_slot_(tls_slot) {
    if (tls_scheduler == sched) return;
    tls_scheduler = sched;
    tls_slot = 0;
  }
  ~CallerScope() {
    tls_scheduler = previous_scheduler_;
    tls_slot = previous_slot_;
  }
  CallerScope(const CallerScope&) = delete;
  CallerScope& operator=(const CallerScope&) = delete;

 private:
  const Scheduler* previous_scheduler_;
  int previous_slot_;
};

}  // namespace

void TaskGroup::record_exception(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(exception_mutex_);
  if (!first_exception_) first_exception_ = e;
}

Scheduler::Scheduler(const MachineProfile& profile) : profile_(profile) {
  PBMG_CHECK(profile.threads >= 1, "scheduler requires >= 1 thread");
  active_workers_.store(profile.threads, std::memory_order_release);
  slots_.reserve(static_cast<std::size_t>(profile.threads));
  for (int i = 0; i < profile.threads; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // Slot 0 is the caller's: no thread of its own.
  threads_.reserve(slots_.size() - 1);
  for (int i = 1; i < profile.threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Scheduler::~Scheduler() {
  stop_.store(true, std::memory_order_release);
  notify(worker_cv_);
  for (auto& t : threads_) t.join();
}

bool Scheduler::on_worker_thread() const { return tls_scheduler == this; }

bool Scheduler::below_cutoff(std::int64_t rows, std::int64_t cells_per_row,
                             std::int64_t cost_per_cell) const {
  const std::int64_t cost =
      tls_solve == SolveState::kForked ? cost_per_cell : 1;
  return rows * cells_per_row * cost <= profile_.sequential_cutoff_cells;
}

std::int64_t Scheduler::grain_for(std::int64_t rows,
                                  std::int64_t cells_per_row,
                                  std::int64_t cost_per_cell) const {
  if (below_cutoff(rows, cells_per_row, cost_per_cell)) {
    return rows > 0 ? rows : 1;
  }
  return profile_.grain_rows;
}

SolveScope::SolveScope() : outermost_(tls_solve == SolveState::kNone) {
  if (outermost_) tls_solve = SolveState::kInline;
}

SolveScope::~SolveScope() {
  if (outermost_) tls_solve = SolveState::kNone;
}

void Scheduler::notify(std::condition_variable& cv) {
  {
    // Empty critical section: a sleeper checks its predicate and goes to
    // sleep under sleep_mutex_, so taking the mutex here orders the state
    // change before that check or after the sleep began — the notify
    // cannot fall in between and be lost.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  cv.notify_all();
}

void Scheduler::set_active_workers(int count) {
  if (count < 1) count = 1;
  if (count > thread_count()) count = thread_count();
  // Sequentially consistent with push_task's read of the limit, so a push
  // that saw the old limit and skipped the callers' wake-up is seen by a
  // caller woken below.
  active_workers_.store(count);
  notify(worker_cv_);
  // A blocked caller also takes tasks while the limit is 1.
  notify(caller_cv_);
}

void Scheduler::inject_spawn_overhead() const {
  if (profile_.spawn_overhead_ns <= 0) return;
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::nanoseconds(profile_.spawn_overhead_ns);
  while (std::chrono::steady_clock::now() - start < budget) cpu_relax();
}

bool Scheduler::task_ready() const {
  for (const auto& slot : slots_) {
    if (slot->approx_size.load() > 0) return true;
  }
  return false;
}

void Scheduler::push_task(int slot, Task task) {
  Slot& owner = *slots_[static_cast<std::size_t>(slot)];
  {
    std::lock_guard<Spinlock> lock(owner.lock);
    owner.deque.push_back(std::move(task));
    // Sequentially consistent with the sleepers' count-then-check, so
    // either this push sees the sleeper below or the sleeper's task_ready()
    // sees the task.
    owner.approx_size.store(static_cast<int>(owner.deque.size()));
  }
  // Wake every sleeping worker: pushes come in bursts at the start of a
  // parallel region, and a notify_one cascade (each woken worker waking the
  // next) costs one futex round-trip per worker — serialising the ramp-up.
  if (sleeping_workers_.load() > 0) notify(worker_cv_);
  // With the limit at 1 no worker runs tasks, so blocked callers must.
  if (blocked_callers_.load() > 0 && active_workers_.load() == 1) {
    notify(caller_cv_);
  }
}

void Scheduler::spawn(TaskGroup& group, std::function<void()> fn) {
  inject_spawn_overhead();
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  Task task;
  task.fn = std::move(fn);
  task.group = &group;
  push_task(on_worker_thread() ? tls_slot : 0, std::move(task));
}

bool Scheduler::try_pop_local(int slot, Task& out) {
  Slot& owner = *slots_[static_cast<std::size_t>(slot)];
  if (owner.approx_size.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<Spinlock> lock(owner.lock);
  if (owner.deque.empty()) return false;
  out = std::move(owner.deque.back());
  owner.deque.pop_back();
  owner.approx_size.store(static_cast<int>(owner.deque.size()),
                          std::memory_order_release);
  return true;
}

bool Scheduler::try_steal(int thief_slot, Task& out) {
  const int n = thread_count();
  // Deterministic round starting at a pseudo-random victim: cheap and good
  // enough for victim selection.
  const auto start = static_cast<int>(
      (static_cast<std::uint64_t>(thief_slot) * 0x9e3779b9u +
       static_cast<std::uint64_t>(
           steal_count_.load(std::memory_order_relaxed))) %
      static_cast<std::uint64_t>(n));
  for (int offset = 0; offset < n; ++offset) {
    const int victim = (start + offset) % n;
    if (victim == thief_slot) continue;
    Slot& owner = *slots_[static_cast<std::size_t>(victim)];
    // Occupancy hint first: empty victims are skipped without locking so
    // idle thieves never contend with a busy owner's deque lock.
    if (owner.approx_size.load(std::memory_order_acquire) == 0) continue;
    // try_lock: if the owner (or another thief) holds the lock, move on to
    // the next victim instead of convoying here.
    if (!owner.lock.try_lock()) continue;
    std::lock_guard<Spinlock> lock(owner.lock, std::adopt_lock);
    if (owner.deque.empty()) continue;
    out = std::move(owner.deque.front());
    owner.deque.pop_front();
    owner.approx_size.store(static_cast<int>(owner.deque.size()),
                            std::memory_order_release);
    steal_count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool Scheduler::try_acquire_task(int slot, Task& out) {
  return try_pop_local(slot, out) ||
         (thread_count() > 1 && try_steal(slot, out));
}

void Scheduler::spawn_range(TaskGroup& group, Task::RangeFn fn, void* context,
                            std::int64_t begin, std::int64_t end) {
  inject_spawn_overhead();
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  Task task;
  task.range_fn = fn;
  task.context = context;
  task.begin = begin;
  task.end = end;
  task.group = &group;
  push_task(tls_slot, std::move(task));
}

void Scheduler::execute(Task task) {
  TaskGroup* group = task.group;
  try {
    if (task.range_fn != nullptr) {
      task.range_fn(task.context, task.begin, task.end);
    } else {
      task.fn();
    }
  } catch (...) {
    group->record_exception(std::current_exception());
  }
  // After the decrement the group may be gone (its waiter saw zero and
  // returned), so the wake-up reads only scheduler state.  Sequentially
  // consistent with block_caller's count-then-check.
  if (group->pending_.fetch_sub(1) == 1 && blocked_callers_.load() > 0) {
    notify(caller_cv_);
  }
}

void Scheduler::worker_main(int slot) {
  tls_scheduler = this;
  tls_slot = slot;
  IdleSpin idle(kWorkerSpin);
  while (!stop_.load(std::memory_order_acquire)) {
    // Throttled worker: park until the active limit readmits this slot.
    // Tasks left in this worker's deque stay stealable by the active
    // participants, so parking never strands work.
    if (slot >= active_workers_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      worker_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               slot < active_workers_.load(std::memory_order_acquire);
      });
      idle.reset();
      continue;
    }
    Task task;
    if (try_acquire_task(slot, task)) {
      idle.reset();
      // The throttle may have dropped between the check above and the
      // take.  A task pushed after set_active_workers returned is ordered
      // after the new limit by the deque lock, so this re-check sees it:
      // hand the task back, where the active participants can steal it,
      // and park.
      if (slot >= active_workers_.load(std::memory_order_acquire)) {
        push_task(slot, std::move(task));
        continue;
      }
      execute(std::move(task));
      continue;
    }
    if (idle.spin()) continue;
    // Nothing within the spin budget: sleep until a push, a throttle change
    // (the limit may have dropped below this slot — re-check the park
    // branch), or shutdown.
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleeping_workers_.fetch_add(1);
    worker_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) || task_ready() ||
             slot >= active_workers_.load(std::memory_order_acquire);
    });
    sleeping_workers_.fetch_sub(1);
  }
  tls_scheduler = nullptr;
  tls_slot = -1;
}

void Scheduler::block_caller(TaskGroup& group) {
  // Sleep until the group drains.  While the limit is 1 no worker runs
  // tasks, so also wake when a task appears anywhere: concurrent callers
  // share slot 0 and run each other's tasks, and one may push this group's
  // next split after this caller found nothing to take.
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  blocked_callers_.fetch_add(1);
  caller_cv_.wait(lock, [&] {
    return group.pending_.load() == 0 ||
           (active_workers_.load() == 1 && task_ready());
  });
  blocked_callers_.fetch_sub(1);
}

void Scheduler::help_until_drained(TaskGroup& group) {
  const int slot = tls_slot;
  IdleSpin idle(kCallerSpin);
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    Task task;
    if (try_acquire_task(slot, task)) {
      execute(std::move(task));
      idle.reset();
      continue;
    }
    // A worker waits here inside a task whose continuation a region is
    // waiting for, so it keeps polling rather than pay a wake-up.  A
    // caller (slot 0) spins briefly for its region's last tasks, then
    // sleeps.
    if (slot != 0) {
      cpu_relax();
      continue;
    }
    if (idle.spin()) continue;
    block_caller(group);
  }
}

void Scheduler::wait(TaskGroup& group) {
  CallerScope scope(this);
  help_until_drained(group);
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(group.exception_mutex_);
    e = group.first_exception_;
    group.first_exception_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

void Scheduler::parallel_for(std::int64_t begin, std::int64_t end,
                             std::int64_t grain, const RangeBody& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  if (thread_count() == 1 || end - begin <= grain) {
    body(begin, end);
    return;
  }
  TaskGroup group;
  // Recursive range splitting: each task halves its range, spawning the
  // right half and keeping the left, until chunks reach the grain.  The
  // shared state (body, group, grain) outlives the tasks because we wait
  // before returning.  Splits travel as allocation-free range tasks.
  struct Splitter {
    Scheduler* self;
    TaskGroup* group;
    std::int64_t grain;
    const RangeBody* body;

    static void entry(void* context, std::int64_t b, std::int64_t e) {
      static_cast<Splitter*>(context)->run(b, e);
    }

    void run(std::int64_t b, std::int64_t e) const {
      while (e - b > grain) {
        const std::int64_t mid = b + (e - b) / 2;
        self->spawn_range(*group, &Splitter::entry,
                          const_cast<Splitter*>(this), mid, e);
        e = mid;
      }
      (*body)(b, e);
    }
  };
  Splitter splitter{this, &group, grain, &body};
  if (tls_solve == SolveState::kInline) tls_solve = SolveState::kForked;
  CallerScope scope(this);
  // Work-first on every participant, the caller included: keep the left
  // half, spawn the right.  A throw from the leftmost leaf is recorded
  // like a task's so the spawned halves, which point into this frame,
  // finish before it unwinds.
  try {
    splitter.run(begin, end);
  } catch (...) {
    group.record_exception(std::current_exception());
  }
  wait(group);
}

double Scheduler::parallel_reduce_sum(std::int64_t begin, std::int64_t end,
                                      std::int64_t grain,
                                      const RangeSum& chunk_fn) {
  if (end <= begin) return 0.0;
  if (grain < 1) grain = 1;
  const std::int64_t chunks = (end - begin + grain - 1) / grain;
  if (chunks == 1) return chunk_fn(begin, end);
  std::vector<double> partials(static_cast<std::size_t>(chunks));
  parallel_for(0, chunks, 1, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t k = first; k < last; ++k) {
      const std::int64_t b = begin + k * grain;
      partials[static_cast<std::size_t>(k)] =
          chunk_fn(b, std::min(end, b + grain));
    }
  });
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

}  // namespace pbmg::rt
