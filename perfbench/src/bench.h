#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "grid/problem.h"
#include "tune/accuracy.h"
#include "tune/table.h"

/// \file bench.h
/// Shared pieces of the perfbench binary: command-line options, the span
/// tracer, sample statistics, the metric sink, and the entry points of
/// the workloads, the per-layer ledger and the pinned-table store.

namespace perfbench {

using namespace pbmg;

// ------------------------------------------------------------ options --

struct Options {
  std::string workload;        ///< see run_workload
  std::uint64_t seed = 1;      ///< input seed (pools, request mix)
  double seconds = 10.0;       ///< measured window of one run
  bool trace = false;          ///< per-layer run instead of end-to-end
  bool tiny = false;           ///< self-check scale: tiny grids, few requests
  std::string tables_dir;      ///< pinned tuned tables
  std::string out_dir;         ///< span dumps and run summaries
  bool regenerate = false;     ///< retrain and rewrite the pinned tables
  std::string commit;          ///< provenance stamp for --regenerate
};

/// Worker count every engine is built with: the host's core count.
int worker_count();

/// Engine over `threads` workers; `packed` selects the packed SoA kernel
/// layout at the widest SIMD width the CPU supports.
std::unique_ptr<Engine> make_engine(int threads, bool packed);

// -------------------------------------------------------------- spans --

/// One traced interval.  Times are seconds since the tracer's epoch.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 for a root span
  std::int64_t request = 0;  ///< request id shared by a request's spans
};

/// In-memory span store.  Spans are appended to per-thread buffers (no
/// lock on the hot path) and merged when the run ends.  A disabled tracer
/// records nothing and Span objects cost one branch.
class Tracer {
 public:
  /// Toggle between runs only, never while client threads are recording.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);
  /// Every span recorded so far, all threads merged.
  std::vector<SpanRecord> collect() const;

 private:
  bool enabled_ = false;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::deque<std::vector<SpanRecord>> buffers_;  // one per recording thread
};

Tracer& tracer();

/// RAII span around one layer call.
class Span {
 public:
  Span(const char* name, std::int64_t parent = 0, std::int64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
};

/// Per-name totals: wall time, self time (wall minus the union of the
/// child spans' intervals) and call count.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::int64_t count = 0;
};
std::map<std::string, LayerTime> self_times(
    const std::vector<SpanRecord>& spans);

/// Writes spans as JSON lines.
void write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path);

// ---------------------------------------------------------- statistics --

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double now_s();

// -------------------------------------------------------------- sink --

/// Named metric values in insertion order, plus the request tally.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines for stderr

  void set(const std::string& name, double value, const std::string& unit);
  /// The single JSON result line; correct means no request failed.
  std::string json() const;
};

// ---------------------------------------------------------- tables --

/// Pinned tuned tables of the benchmark (tables/<family>.json).
tune::TunedConfig load_table(const Options& options, OperatorFamily family,
                             int level_needed);
/// Retrains every pinned table and rewrites tables/ plus its provenance.
int regenerate_tables(const Options& options);

// ----------------------------------------------------------- inputs --

/// Held-out instance with its oracle solution; `seed` and `salt` pick an
/// independent stream, so the same seed always gives the same pool.
std::vector<tune::TrainingInstance> make_pool(const grid::StencilOp& op,
                                              int count, std::uint64_t seed,
                                              std::uint64_t salt,
                                              rt::Scheduler& sched);

/// Accuracy of `x_out` started from `x_in` (paper §2.2):
/// ||x_in − x_opt|| / ||x_out − x_opt||.
double achieved_accuracy(const tune::TrainingInstance& inst,
                         const Grid2D& x_in, const Grid2D& x_out,
                         rt::Scheduler& sched);

bool bitwise_equal(const Grid2D& a, const Grid2D& b);

// -------------------------------------------------------- workloads --

/// Adds the per-span self-time table to the report's notes and writes
/// every recorded span to <out>/spans_<workload>_seed<n>.jsonl.
void finish_trace(const Options& options, Report& report);

/// Runs one workload (end-to-end metrics, or per-layer metrics when
/// options.trace) into `report`.
void run_workload(const Options& options, Report& report);

/// Per-layer probes shared by every traced run (kernels, runtime,
/// engine/tune micro-probes); adds their metrics to `report`.
void run_ledger(const Options& options, Report& report);

}  // namespace perfbench
