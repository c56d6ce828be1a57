#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/solve_session.h"
#include "grid/fingerprint.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "tune/dynamic.h"

/// \file solve_service.h
/// Multi-tenant front-end: concurrent solve requests onto one Engine.
///
/// Many client threads call solve() concurrently; the service binds each
/// grid size to a cached SolveSession (created once, reused by every
/// later request of that size) and runs the solve on the caller's thread.
/// The work-stealing scheduler composes nested parallelism, so requests
/// submitted from different client threads interleave on one worker pool
/// instead of fighting over oversubscribed thread pools — this is what
/// makes aggregate throughput scale with client count
/// (bench/fig17_concurrent_service).
///
/// The service also owns an obs::MetricsRegistry: every *converged*
/// solve lands in a per-(grid size × accuracy) latency histogram
/// (`pbmg_solve_latency_seconds{n="...",acc="..."}`); solves that threw
/// OR failed their residual audit land in `pbmg_solve_failure_seconds`
/// instead — the healthy histograms feed the drift watcher, and a
/// latency sample from a solve that did not do its job is not healthy
/// load.  Every request increments
/// `pbmg_solve_requests_total{outcome=...}` (ok / unconverged / error —
/// the label sums to *all* requests, per the Prometheus `_total`
/// convention), and metrics_snapshot() samples engine health (scheduler
/// steals, scratch-pool hit rate) into gauges on the way out.
///
/// Config generations & drift-triggered retunes: the tuned config, its
/// engine, and its sessions form one immutable *generation*.  When
/// enable_drift_watch is armed, live latencies feed an obs::DriftWatcher
/// against the tune-time baseline; sustained drift launches the retune
/// callback on a background thread, and its result is installed as a new
/// generation with one pointer swap — in-flight solves finish on the
/// generation they bound (snapshotted at entry), new requests bind the
/// fresh one.
///
/// Operator routing (solve_op): arbitrary-coefficient requests are
/// fingerprinted (grid/fingerprint.h), routed to the nearest tuned
/// family, and served by a cached per-operator DynamicSolver with
/// cross-family escalation (tune/dynamic.h).  Fingerprints outside every
/// tuned family's match threshold fire a once-per-family background
/// retune whose tables install as a generation *extension*
/// (install_family) — the generation id and in-flight solves are
/// untouched.  Route outcomes export as
/// `pbmg_route_total{family,outcome=matched|escalated|retune}` plus a
/// fingerprint-distance histogram.
///
/// Fleet-scale memory: sessions and routed bindings are the expensive
/// resident state (each is a tune::PreparedOperator: coefficient
/// ladders, averaged and RAP, with their packed diagonals, and prewarmed
/// scratch), so each generation keeps
/// both in one byte-budgeted LRU cache.  ServicePolicy caps resident
/// bytes and/or entry count; a bind past the budget evicts the
/// least-recently-used *unpinned* entries
/// (`pbmg_session_evictions_total`).  An entry is pinned while anything
/// besides the cache holds it: a SessionRef from session(), or a request
/// in flight on it.  A pin also keeps the whole generation alive: a
/// retired generation is reclaimed — its cache, and its engine when
/// generation-owned — as soon as its last pin drops, instead of being
/// retained for the service's lifetime.  Resident bytes across all
/// generations are exported as `pbmg_session_bytes`.

namespace pbmg {

/// One solve request.  The operand grids stay caller-owned: `x` enters
/// with the Dirichlet ring + initial guess and leaves with the solution.
struct SolveRequest {
  int accuracy_index = -1;        ///< tuned-ladder index; < 0 uses target
  /// Used when accuracy_index < 0.  solve() and solve_batch() need one of
  /// the tuned ladder's accuracies exactly (TunedConfig::accuracy_index);
  /// solve_op() takes any reduction >= 1.  Must be finite.
  double target_accuracy = 0.0;
  bool fmg = false;               ///< FULL-MULTIGRID instead of MULTIGRID-V
  /// Optional per-(level, phase) time attribution: when set, the solve
  /// records into it and SolveStats::phases returns it.  Requests may
  /// share one profile to aggregate a workload-wide breakdown.
  std::shared_ptr<obs::PhaseProfile> profile;
  /// Optional convergence audit (solve_session.h).  Off by default; the
  /// drift bench/tests enable it so latency samples provably come from
  /// solves that did their job, not from ones that diverged quickly.
  ResidualPolicy residual;
};

/// Admission/eviction budget for the cache of sessions and routed
/// bindings.  Zero means unlimited (the historical behaviour).  The byte
/// budget counts the footprint_bytes of every cached entry across every
/// retained generation; a bind that would exceed it evicts LRU-first
/// among the live generation's unpinned entries.  A single entry larger
/// than the budget is still admitted (the service must be able to serve
/// it) — the budget then empties everything else.
struct ServicePolicy {
  std::size_t max_session_bytes = 0;  ///< resident footprint cap (0 = off)
  std::size_t max_sessions = 0;  ///< live-generation entry cap (0 = off)
};

/// Service-level counters (monotonic since construction, except the
/// gauges noted).  One ledger: each count below that the registry also
/// exports is read from its counter (named in the field note), so the
/// stats and the exposition never disagree.
struct ServiceStats {
  /// Solves completed (batch counts each RHS):
  /// pbmg_solve_requests_total{outcome="ok"} + {outcome="unconverged"}.
  std::int64_t requests = 0;
  /// Solves that threw: pbmg_solve_requests_total{outcome="error"}.
  std::int64_t failures = 0;
  double busy_seconds = 0.0;     ///< sum of per-request solve seconds
  std::size_t sessions = 0;      ///< entries cached in the live generation
  /// Entries evicted by the cache budget: pbmg_session_evictions_total.
  std::int64_t evictions = 0;
  std::size_t session_bytes = 0;  ///< resident entry bytes, all generations
  std::size_t retired_generations = 0;  ///< retired gens still pinned alive
  /// trim() calls since construction: pbmg_scratch_trims_total.
  std::int64_t trims = 0;
  /// Total bytes freed by those trims: pbmg_scratch_trim_bytes_total.
  std::int64_t trim_bytes = 0;
  double scratch_hit_rate = 0.0;    ///< pool hit rate, sampled at stats()
  std::int64_t scheduler_steals = 0;  ///< work steals, sampled at stats()
  /// Comparison windows closed: pbmg_drift_windows_total, both verdicts.
  std::int64_t drift_windows = 0;
  /// Windows that failed both tests:
  /// pbmg_drift_windows_total{verdict="drifted"}.
  std::int64_t drifted_windows = 0;
  /// Background retunes launched: pbmg_drift_retunes_total.
  std::int64_t retunes = 0;
  std::int64_t generation = 1;   ///< live config generation (starts at 1)
  std::int64_t routed_requests = 0;  ///< solve_op requests completed
  /// Background family retunes launched: pbmg_family_retunes_total.
  std::int64_t family_retunes = 0;
};

/// Pinning handle to a cached SolveSession.  While any SessionRef to a
/// session exists, the eviction sweep will not destroy it, and the
/// generation that owns it (config + engine + cache) stays alive even
/// after being retired by an install().  Dropping the last
/// ref makes the session evictable again and lets a retired generation's
/// memory be reclaimed.  Copyable and cheap (two shared_ptrs); the
/// session API behind it is const-thread-safe, so refs may be shared
/// across threads.
class SessionRef {
 public:
  SessionRef() = default;
  SolveSession& operator*() const { return *session_; }
  SolveSession* operator->() const { return session_.get(); }
  SolveSession* get() const { return session_.get(); }
  explicit operator bool() const { return session_ != nullptr; }

 private:
  friend class SolveService;
  SessionRef(std::shared_ptr<SolveSession> session,
             std::shared_ptr<void> generation)
      : session_(std::move(session)), generation_(std::move(generation)) {}

  std::shared_ptr<SolveSession> session_;
  std::shared_ptr<void> generation_;  ///< keeps the owning generation alive
};

/// Thread-safe solve front-end over one Engine + one tuned config.
class SolveService {
 public:
  /// What a retune produces: fresh tables, their healthy-latency
  /// baseline, and optionally a fresh Engine (a re-search usually finds
  /// new runtime parameters; null keeps the current generation's engine).
  struct RetuneResult {
    tune::TunedConfig config;
    obs::LatencyBaseline baseline;
    std::shared_ptr<Engine> engine;
  };
  using RetuneFn = std::function<RetuneResult()>;

  /// The service keeps its own copy of `config`; `engine` must outlive it.
  /// `policy` bounds the session cache (default: unlimited, the
  /// historical behaviour).
  SolveService(Engine& engine, tune::TunedConfig config,
               ServicePolicy policy = {});

  /// Joins any in-flight background retune.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Arms drift detection: live solve latencies are compared against
  /// `baseline` under `policy`, and sustained drift runs `retune` on a
  /// background thread followed by an atomic install() of its result.
  /// Call once, before serving traffic (the watcher pointer itself is
  /// unsynchronized; everything behind it is thread-safe).  A null
  /// `retune` detects and counts drift without ever swapping.
  void enable_drift_watch(obs::LatencyBaseline baseline,
                          obs::DriftPolicy policy, RetuneFn retune);

  /// Atomically installs a new generation: new requests bind the fresh
  /// config (and engine, when non-null — otherwise the live generation's
  /// engine is inherited), in-flight solves finish where they started,
  /// and the drift watcher — if armed — is rebased onto `baseline`.  The
  /// live generation's family extensions (install_family) carry over,
  /// except one for the new config's own op_family, which it supersedes.
  /// Thread-safe; called by the background retune and usable directly.
  void install(tune::TunedConfig config, obs::LatencyBaseline baseline = {},
               std::shared_ptr<Engine> engine = nullptr);

  /// Solves one request on the calling thread.  Thread-safe; throws what
  /// the underlying solve throws (after counting the failure): ConfigError
  /// for an accuracy_index outside the tuned ladder, for the unset default
  /// (accuracy_index < 0 with target_accuracy <= 0) and for a non-finite
  /// target_accuracy, and InvalidArgument for a target_accuracy that is
  /// not one of the tuned accuracies.
  SolveStats solve(Grid2D& x, const Grid2D& b, const SolveRequest& request);

  /// What a family retune produces: tuned tables for the requested
  /// family (TunedConfig::op_family must name it).  Runs on a background
  /// thread; throwing keeps serving the stand-in family, counts one
  /// pbmg_drift_retune_failures_total, and re-arms the retune for later
  /// requests.
  using FamilyRetuneFn = std::function<tune::TunedConfig(OperatorFamily)>;

  /// Arms operator routing (solve_op): sets the background retune
  /// callback invoked the first time a request's fingerprint lands
  /// outside every tuned family's match threshold.  Call once, before
  /// serving routed traffic (the callback itself is unsynchronized).  A
  /// null `retune` routes and escalates without ever training new
  /// families; solve_op works without this call, retune-less.
  void enable_operator_routing(FamilyRetuneFn retune);

  /// Extends the LIVE generation with tuned tables for one operator
  /// family (keyed by config.op_family): future solve_op requests whose
  /// fingerprint routes to that family serve from these tables.  Unlike
  /// install(), this is a generation *extension* — the generation id,
  /// its engine, its sessions, and every in-flight solve are untouched;
  /// only routed bindings that were standing in for this family are
  /// dropped (their bytes leave the budget) so their next request
  /// re-routes.  Thread-safe; called by the background family retune and
  /// usable directly.
  void install_family(tune::TunedConfig config);

  /// Serves one arbitrary-operator request: fingerprints `op` (cached
  /// per operator identity × size), routes to the nearest tuned family
  /// within the match threshold, a fingerprint distance of 0.75
  /// (escalating across families when the input underperforms,
  /// tune/dynamic.h), and solves on the calling thread with at most
  /// tune::kInvocationBudget variant calls.  A fingerprint outside every
  /// tuned family's threshold is still served (nearest family) and — once
  /// per family, for a request that passes validation — fires the
  /// background retune armed by enable_operator_routing, whose result
  /// installs via install_family.  `request.accuracy_index` selects the
  /// target reduction from the served family's ladder (target_accuracy
  /// is used directly when the index is unset); `request.fmg` is
  /// rejected — routed solves drive tuned V variants.  The returned
  /// stats carry the honest dynamic outcome (real variant invocations,
  /// out-of-window residual audit); `detail`, when non-null, receives
  /// the full per-variant breakdown.  Routed solves never feed the
  /// latency histograms or the drift watcher (their adaptive iteration
  /// count is not comparable to the fixed-shape baseline); they land in
  /// pbmg_route_total{family,outcome} and the fingerprint-distance
  /// histogram instead.  Thread-safe; throws like solve().
  SolveStats solve_op(const grid::StencilOp& op, Grid2D& x, const Grid2D& b,
                      const SolveRequest& request,
                      tune::DynamicResult* detail = nullptr);

  /// Solves K iterates against one shared right-hand side `b_template`
  /// in a single fused multi-RHS plan walk (SolveSession::solve_batch_v,
  /// or solve_batch_fmg for `request.fmg`): every relax and restriction
  /// sweep loads each coefficient row once and applies it to all K
  /// iterates, so throughput grows with K while each xs[k] finishes
  /// bitwise identical to a solo solve(xs[k], b, request).  V and FMG
  /// batches are both fused.  Returns one SolveStats per iterate; each
  /// slot's `seconds` is the batch's wall-clock, and the service records
  /// ONE latency sample per batch — into the healthy histogram only when
  /// every RHS converged — plus a `pbmg_batch_size` histogram sample.
  /// Batched samples do not feed the drift watcher: batch wall-clock is
  /// not comparable to the solo per-solve baseline.  Thread-safe; throws
  /// like solve() (a throw fails all K requests), and throws
  /// InvalidArgument when two slots share an iterate or an iterate is
  /// `b_template`.
  std::vector<SolveStats> solve_batch(std::span<Grid2D* const> xs,
                                      const Grid2D& b_template,
                                      const SolveRequest& request);

  /// The live generation's session bound to side `n`, created on first
  /// use (evicting LRU unpinned entries if the bind exceeds the policy
  /// budget).  Thread-safe.  The returned SessionRef pins the
  /// session — and its whole generation — against eviction and
  /// retired-generation reclaim; hold it only as long as needed.  After
  /// an install() the ref stays valid but no longer receives new solve()
  /// traffic.
  SessionRef session(int n);

  /// Counter snapshot.  scratch_hit_rate and scheduler_steals are sampled
  /// from the live generation's engine at call time; the rest are service
  /// counters.
  ServiceStats stats() const;

  /// Releases pooled scratch memory (idle shrink); sessions stay bound.
  /// Trims every retained generation's engine, not just the live one —
  /// a post-install trim must free the *retired* engine's pool too, or a
  /// config swap silently doubles resident scratch (engines shared
  /// across generations are trimmed once).  Also reclaims retired
  /// generations whose last pin has dropped.  Returns bytes freed (also
  /// accumulated into ServiceStats::trim_bytes).
  std::size_t trim();

  /// The service's metrics registry (live handles; see obs/metrics.h).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Registry snapshot with engine health gauges refreshed first
  /// (Engine::publish_metrics) — the one-call exposition entry point.
  obs::RegistrySnapshot metrics_snapshot();

  /// Live generation id (1 until the first install).
  std::int64_t generation() const {
    return generation_id_.load(std::memory_order_acquire);
  }

  /// True while a background retune is running.
  bool retune_in_progress() const {
    return retune_in_progress_.load(std::memory_order_acquire);
  }

  /// The live generation's engine / tuned config.  The references are
  /// valid at least until that generation is retired by an install() AND
  /// its last pin drops (retired generations are reclaimed); callers
  /// that outlive installs should copy the config or hold a SessionRef.
  Engine& engine() const;
  const tune::TunedConfig& config() const;

 private:
  /// One cached routing decision: the family an operator's fingerprint
  /// ranked nearest, the family it routed to, and the bound DynamicSolver
  /// (prewarmed hierarchies + executors).  Immutable once published; the
  /// StencilOp copy keeps the coefficient storage — and with it the
  /// identity() cache key — alive for the binding's lifetime.
  struct OpBinding {
    grid::StencilOp op;
    std::string nearest_family;      ///< overall-nearest canonical family
    OperatorFamily nearest = OperatorFamily::kPoisson;
    std::string served_family;       ///< nearest family WITH tuned tables
    double served_distance = 0.0;
    bool matched = false;  ///< served_distance within the match threshold
    std::shared_ptr<const tune::DynamicSolver> solver;
    std::shared_ptr<const tune::TunedConfig> served_config;
  };

  /// Cache key.  A session is keyed by its grid side; a routed binding by
  /// (StencilOp::identity, n), flagged so that a Poisson operator's null
  /// identity never collides with the session of its size.
  struct CacheKey {
    bool routed = false;
    const void* identity = nullptr;
    int n = 0;
    auto operator<=>(const CacheKey&) const = default;
  };

  /// One cache entry — a session or a routed binding — and its eviction
  /// bookkeeping.  A copy of the slot pins the entry: the eviction sweep
  /// only takes entries whose last reference is the cache's own.
  struct Slot {
    std::shared_ptr<SolveSession> session;     ///< set for session keys
    std::shared_ptr<const OpBinding> binding;  ///< set for routed keys
    std::size_t bytes = 0;        ///< footprint_bytes() at bind time
    std::uint64_t last_used = 0;  ///< global LRU tick of the last bind
  };

  using FamilyTable =
      std::map<std::string, std::shared_ptr<const tune::TunedConfig>>;

  /// One immutable (config, engine, cache) unit.  `owned` is null when
  /// the engine is caller-owned (generation 1, and config-only installs
  /// that inherited it); `engine` always points at the engine this
  /// generation executes on.  Installs inherit `owned` as a shared_ptr —
  /// never a raw pointer into a retired generation — so reclaiming a
  /// retired generation can release a generation-owned engine exactly
  /// when its last co-owner goes.  Cached entries share `config`, never
  /// the generation, so nothing in the cache keeps its own generation
  /// alive.
  struct Generation {
    std::int64_t id = 1;
    std::shared_ptr<Engine> owned;
    Engine* engine = nullptr;
    std::shared_ptr<const tune::TunedConfig> config;
    std::mutex mutex;  // guards cache, resident_bytes and family_configs
    std::map<CacheKey, Slot> cache;
    std::size_t resident_bytes = 0;  ///< sum of slot bytes in this gen
    /// Generation extensions: per-family tuned tables installed through
    /// install_family (and carried across install()).  `config` stays
    /// the fallback for its own op_family.
    FamilyTable family_configs;
  };

  std::shared_ptr<Generation> current_generation() const;
  /// The entry under `key` in `gen`, pinned by the returned copy.  A miss
  /// runs `build(extensions)` outside the generation lock, on a snapshot
  /// of the generation's family extensions, keeps the winner of an
  /// emplace race, and enforces the policy budget on the new entry.
  template <class Build>
  Slot cached(const std::shared_ptr<Generation>& gen, const CacheKey& key,
              const Build& build);
  SessionRef session_in(const std::shared_ptr<Generation>& gen, int n);
  /// The cached routing decision for `op` in `gen`, fingerprinting and
  /// binding a DynamicSolver on first sight.
  std::shared_ptr<const OpBinding> binding_for(
      const std::shared_ptr<Generation>& gen, const grid::StencilOp& op);
  /// Evicts LRU unpinned entries from `gen` until the policy is satisfied
  /// (or nothing evictable remains).  Caller must hold gen.mutex.
  void enforce_policy_locked(Generation& gen);
  /// Re-enforces the budget after a request dropped its pin: a bind that
  /// found every other entry pinned overshoots, and requests drain it as
  /// they finish.  Free under an unlimited policy.
  void enforce_policy(Generation& gen);
  /// Adds `delta` to `gen`'s resident bytes and to the service-wide
  /// counter behind pbmg_session_bytes.  Caller must hold gen.mutex, or
  /// hold the last reference to `gen`.
  void add_bytes(Generation& gen, std::ptrdiff_t delta);
  /// Moves retired generations nobody pins into `out` for destruction
  /// outside the lock.  Caller must hold mutex_.
  void reclaim_retired_locked(
      std::vector<std::shared_ptr<Generation>>& out);
  /// Throws ConfigError unless `request` selects an accuracy on
  /// `config`'s ladder by index, or names a finite positive target.
  static void validate_request(const tune::TunedConfig& config,
                               const SolveRequest& request);
  /// The part of validate_request no tables decide: throws ConfigError
  /// unless `request` sets an index or a finite positive target.
  static void validate_target(const SolveRequest& request);
  enum class Outcome { kServed, kRouted, kThrew };
  /// The request ledger of solve, solve_batch and solve_op: `count`
  /// requests timed as one sample of `seconds`, `converged` of which
  /// passed their audit.  The sample lands in `healthy` (if non-null)
  /// only when all converged, else in pbmg_solve_failure_seconds.
  void account(Outcome outcome, std::int64_t count, std::int64_t converged,
               double seconds, obs::Histogram* healthy = nullptr);
  void observe_drift(const std::shared_ptr<Generation>& gen,
                     const SolveStats& stats, int accuracy_index, bool fmg);
  void start_retune();
  /// Launches the once-per-family background retune; returns true when
  /// THIS call fired it (false: no callback, family already handled, or
  /// another retune is mid-flight — the family stays unhandled so a
  /// later request retries).
  bool start_family_retune(OperatorFamily family);

  /// Latency histogram for (n, accuracy index), resolved once per pair
  /// and cached so the solve path never re-walks the registry map.
  obs::Histogram& latency_histogram(int n, int accuracy_index);
  /// pbmg_route_total{family,outcome} counter, cached like latency_.
  obs::Counter& route_counter(const std::string& family,
                              const std::string& outcome);

  ServicePolicy policy_;

  obs::MetricsRegistry metrics_;
  obs::Counter& requests_ok_;  // resolved once; stable addresses
  obs::Counter& requests_unconverged_;
  obs::Counter& requests_error_;
  obs::Counter& session_evictions_;
  obs::Counter& trims_total_;
  obs::Counter& trim_bytes_total_;
  obs::Counter& drift_windows_ok_;
  obs::Counter& drift_windows_drifted_;
  obs::Counter& retunes_total_;
  obs::Counter& retune_failures_total_;
  obs::Counter& family_retunes_total_;
  obs::Gauge& generation_gauge_;
  obs::Gauge& retune_gauge_;
  obs::Gauge& session_bytes_gauge_;
  obs::Histogram& failure_seconds_;
  obs::Histogram& batch_size_;
  obs::Histogram& route_distance_;

  mutable std::mutex mutex_;  // guards current_/retired_, the two service
                              // totals below, latency_, route_counters_
  std::shared_ptr<Generation> current_;
  std::vector<std::shared_ptr<Generation>> retired_;
  /// The two ServiceStats fields no registry counter records; every other
  /// count is read back from its counter in stats().
  double busy_seconds_ = 0.0;
  std::int64_t routed_requests_ = 0;
  std::map<std::pair<int, int>, obs::Histogram*> latency_;
  std::map<std::pair<std::string, std::string>, obs::Counter*> route_counters_;

  std::atomic<std::int64_t> generation_id_{1};
  std::atomic<std::uint64_t> lru_tick_{0};  ///< global entry-use clock
  /// Resident entry bytes across all generations; atomic because binds
  /// and evictions happen under per-generation mutexes, reclaim under
  /// mutex_.  Mirrored into pbmg_session_bytes at every change.
  std::atomic<std::size_t> session_bytes_{0};
  std::unique_ptr<obs::DriftWatcher> watcher_;  // set once, before serving
  RetuneFn retune_fn_;
  std::atomic<bool> retune_in_progress_{false};
  std::thread retune_thread_;  // joined before reuse and in the dtor

  FamilyRetuneFn family_retune_fn_;  // set once, before routed traffic
  std::mutex route_mutex_;  // guards retuned_families_
  /// Families whose background retune has launched (and not failed):
  /// the exactly-once guarantee for family retunes.  Deliberately NOT
  /// per-generation — a drift install must not re-train every routed
  /// family from scratch.
  std::set<std::string> retuned_families_;
};

}  // namespace pbmg
