#include "engine/solve_service.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "grid/level.h"
#include "grid/problem.h"
#include "support/error.h"
#include "support/timer.h"

namespace pbmg {

namespace {

/// A routed operator whose fingerprint sits within this distance of the
/// served family's reference counts as matched.  0.75 sits under the
/// smallest inter-family reference gap that matters for routing (≈ 1.0
/// between the rotated-tensor families) while absorbing one family's
/// discretization drift across grid sizes (≪ 0.1).
constexpr double kMatchThreshold = 0.75;

}  // namespace

SolveService::SolveService(Engine& engine, tune::TunedConfig config,
                           ServicePolicy policy)
    : policy_(policy),
      requests_ok_(
          metrics_.counter("pbmg_solve_requests_total{outcome=\"ok\"}")),
      requests_unconverged_(metrics_.counter(
          "pbmg_solve_requests_total{outcome=\"unconverged\"}")),
      requests_error_(
          metrics_.counter("pbmg_solve_requests_total{outcome=\"error\"}")),
      session_evictions_(metrics_.counter("pbmg_session_evictions_total")),
      trims_total_(metrics_.counter("pbmg_scratch_trims_total")),
      trim_bytes_total_(metrics_.counter("pbmg_scratch_trim_bytes_total")),
      drift_windows_ok_(
          metrics_.counter("pbmg_drift_windows_total{verdict=\"ok\"}")),
      drift_windows_drifted_(
          metrics_.counter("pbmg_drift_windows_total{verdict=\"drifted\"}")),
      retunes_total_(metrics_.counter("pbmg_drift_retunes_total")),
      retune_failures_total_(
          metrics_.counter("pbmg_drift_retune_failures_total")),
      family_retunes_total_(metrics_.counter("pbmg_family_retunes_total")),
      generation_gauge_(metrics_.gauge("pbmg_config_generation")),
      retune_gauge_(metrics_.gauge("pbmg_retune_in_progress")),
      session_bytes_gauge_(metrics_.gauge("pbmg_session_bytes")),
      failure_seconds_(metrics_.histogram("pbmg_solve_failure_seconds")),
      batch_size_(metrics_.histogram("pbmg_batch_size")),
      route_distance_(
          metrics_.histogram("pbmg_route_fingerprint_distance")) {
  current_ = std::make_shared<Generation>();
  current_->engine = &engine;
  current_->config =
      std::make_shared<const tune::TunedConfig>(std::move(config));
  generation_gauge_.set(1.0);
}

SolveService::~SolveService() {
  if (retune_thread_.joinable()) retune_thread_.join();
}

void SolveService::enable_drift_watch(obs::LatencyBaseline baseline,
                                      obs::DriftPolicy policy,
                                      RetuneFn retune) {
  watcher_ = std::make_unique<obs::DriftWatcher>(std::move(baseline), policy);
  retune_fn_ = std::move(retune);
}

void SolveService::install(tune::TunedConfig config,
                           obs::LatencyBaseline baseline,
                           std::shared_ptr<Engine> engine) {
  auto fresh = std::make_shared<Generation>();
  fresh->config = std::make_shared<const tune::TunedConfig>(std::move(config));
  std::int64_t id = 0;
  std::vector<std::shared_ptr<Generation>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = current_->id + 1;
    fresh->id = id;
    // A config-only install inherits the live engine as a CO-OWNING
    // shared_ptr (when the retiring generation owned one), never a raw
    // pointer into the retired generation — reclaiming that generation
    // must not pull the engine out from under the fresh one.  A null
    // `owned` on both sides means the construction-time, caller-owned
    // engine, which outlives the service by contract.
    fresh->owned = engine ? std::move(engine) : current_->owned;
    fresh->engine = fresh->owned ? fresh->owned.get() : current_->engine;
    // Family extensions carry over: retuned_families_ is service-wide, so
    // an extension dropped here would never be trained again.  The
    // installed config is newer than an extension for its own family.
    {
      std::lock_guard<std::mutex> gen_lock(current_->mutex);
      fresh->family_configs = current_->family_configs;
    }
    fresh->family_configs.erase(fresh->config->op_family);
    retired_.push_back(current_);
    current_ = std::move(fresh);
    reclaim_retired_locked(reclaimed);
  }
  generation_id_.store(id, std::memory_order_release);
  generation_gauge_.set(static_cast<double>(id));
  // Rebase after the swap so live windows restart against the new
  // baseline; samples still in flight on the old generation are filtered
  // out by observe_drift's generation check.
  if (watcher_) watcher_->rebase(std::move(baseline));
  // `reclaimed` destructs here, outside every lock: tearing down cached
  // hierarchies (and possibly a generation-owned engine) is heavy.
}

void SolveService::reclaim_retired_locked(
    std::vector<std::shared_ptr<Generation>>& out) {
  // A retired generation with use_count 1 is pinned by nobody: no
  // SessionRef holds its aliased pointer, no in-flight solve snapshotted
  // it, only retired_ itself keeps it alive.  Its cache — and its
  // engine, when no later generation co-owns it — is dead weight.
  auto it = retired_.begin();
  while (it != retired_.end()) {
    if (it->use_count() == 1) {
      Generation& gen = **it;
      add_bytes(gen, -static_cast<std::ptrdiff_t>(gen.resident_bytes));
      out.push_back(std::move(*it));
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

void SolveService::add_bytes(Generation& gen, std::ptrdiff_t delta) {
  if (delta == 0) return;
  const auto step = static_cast<std::size_t>(delta);  // wraps for negatives
  gen.resident_bytes += step;
  session_bytes_gauge_.set(static_cast<double>(
      session_bytes_.fetch_add(step, std::memory_order_acq_rel) + step));
}

std::shared_ptr<SolveService::Generation> SolveService::current_generation()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

obs::Histogram& SolveService::latency_histogram(int n, int accuracy_index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = latency_.find({n, accuracy_index});
    if (it != latency_.end()) return *it->second;
  }
  // Registry accessors hand out stable addresses, so resolving outside
  // mutex_ is safe even when two threads race on one (n, acc) pair.
  obs::Histogram& hist = metrics_.histogram(
      "pbmg_solve_latency_seconds{n=\"" + std::to_string(n) + "\",acc=\"" +
      std::to_string(accuracy_index) + "\"}");
  std::lock_guard<std::mutex> lock(mutex_);
  latency_.emplace(std::make_pair(n, accuracy_index), &hist);
  return hist;
}

template <class Build>
SolveService::Slot SolveService::cached(const std::shared_ptr<Generation>& gen,
                                        const CacheKey& key,
                                        const Build& build) {
  for (;;) {
    FamilyTable extensions;
    {
      std::lock_guard<std::mutex> lock(gen->mutex);
      auto it = gen->cache.find(key);
      if (it != gen->cache.end()) {
        it->second.last_used =
            lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
        return it->second;
      }
      extensions = gen->family_configs;
    }
    // Build outside the lock: prewarming a large level hierarchy
    // allocates and zero-fills megabytes, and fingerprinting an operator
    // sweeps it, neither of which may stall in-flight requests on other
    // entries.  If two threads race to bind one key, try_emplace keeps the
    // winner and the loser's entry is discarded after the unlock (its
    // prewarmed grids are already in the shared pool).
    Slot fresh = build(extensions);
    std::lock_guard<std::mutex> lock(gen->mutex);
    // install_family may have landed while a binding was building; if the
    // freshly installed tables are exactly the ones this binding settled
    // for a stand-in over, rebuild against the new map rather than
    // caching a decision the install just invalidated.
    const OpBinding* routed = fresh.binding.get();
    if (routed != nullptr && routed->served_family != routed->nearest_family &&
        gen->family_configs.count(routed->nearest_family) != 0 &&
        extensions.count(routed->nearest_family) == 0) {
      continue;
    }
    auto [it, inserted] = gen->cache.try_emplace(key, std::move(fresh));
    if (inserted) {
      add_bytes(*gen, static_cast<std::ptrdiff_t>(it->second.bytes));
    }
    it->second.last_used =
        lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Pin before enforcing, so the entry we are about to hand out is
    // never its own eviction victim (use_count > 1 excludes it).
    Slot pinned = it->second;
    if (inserted) enforce_policy_locked(*gen);
    return pinned;
  }
}

SessionRef SolveService::session_in(const std::shared_ptr<Generation>& gen,
                                    int n) {
  Slot slot = cached(gen, CacheKey{false, nullptr, n}, [&](const FamilyTable&) {
    // The operator comes from the config's own family, so a service over
    // non-Poisson tables solves the operator it was tuned for (the Poisson
    // family takes StencilOp's constant-coefficient fast path, bit-for-bit
    // the historical behaviour).
    auto session = std::make_shared<SolveSession>(
        *gen->engine, *gen->config,
        make_operator(n, parse_operator_family(gen->config->op_family)));
    const std::size_t bytes = session->footprint_bytes();
    return Slot{std::move(session), nullptr, bytes, 0};
  });
  return SessionRef(std::move(slot.session), gen);
}

void SolveService::enforce_policy_locked(Generation& gen) {
  const auto over = [&] {
    if (policy_.max_sessions > 0 && gen.cache.size() > policy_.max_sessions) {
      return true;
    }
    return policy_.max_session_bytes > 0 &&
           session_bytes_.load(std::memory_order_acquire) >
               policy_.max_session_bytes;
  };
  while (over()) {
    // LRU among this generation's UNPINNED entries (use_count 1: only the
    // cache itself holds it — no SessionRef, no in-flight request).
    // Pinned entries are untouchable no matter how stale, so a workload
    // that pins everything can exceed the budget; it drains back under it
    // as requests drop their pins (enforce_policy) and later binds
    // re-enforce.
    auto victim = gen.cache.end();
    for (auto it = gen.cache.begin(); it != gen.cache.end(); ++it) {
      const Slot& slot = it->second;
      const long refs = slot.session ? slot.session.use_count()
                                     : slot.binding.use_count();
      if (refs != 1) continue;
      if (victim == gen.cache.end() ||
          slot.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == gen.cache.end()) return;  // everything pinned
    add_bytes(gen, -static_cast<std::ptrdiff_t>(victim->second.bytes));
    gen.cache.erase(victim);
    session_evictions_.add(1);
  }
}

void SolveService::enforce_policy(Generation& gen) {
  if (policy_.max_session_bytes == 0 && policy_.max_sessions == 0) return;
  std::lock_guard<std::mutex> lock(gen.mutex);
  enforce_policy_locked(gen);
}

SessionRef SolveService::session(int n) {
  return session_in(current_generation(), n);
}

void SolveService::validate_request(const tune::TunedConfig& config,
                                    const SolveRequest& request) {
  if (request.accuracy_index >= config.accuracy_count()) {
    throw ConfigError("SolveService: accuracy_index " +
                      std::to_string(request.accuracy_index) +
                      " is outside family '" + config.op_family +
                      "' tuned ladder [0, " +
                      std::to_string(config.accuracy_count()) + ")");
  }
  validate_target(request);
}

void SolveService::validate_target(const SolveRequest& request) {
  if (request.accuracy_index < 0 &&
      !(std::isfinite(request.target_accuracy) &&
        request.target_accuracy > 0.0)) {
    throw ConfigError(
        "SolveService: request selects no accuracy — set accuracy_index to "
        "a tuned ladder index or target_accuracy to a finite positive "
        "accuracy level (the default-constructed request is deliberately "
        "invalid)");
  }
}

void SolveService::account(Outcome outcome, std::int64_t count,
                           std::int64_t converged, double seconds,
                           obs::Histogram* healthy) {
  // Failed requests cost wall-clock too; without the failure histogram a
  // wave of fast-failing (or diverging) requests would be invisible in
  // latency telemetry.  The healthy histograms are what the drift watcher
  // (and any operator reading them) treats as serving latency, so a
  // sample with an unconverged request in it never lands there.
  if (outcome == Outcome::kThrew || converged != count) {
    failure_seconds_.record(seconds);
  } else if (healthy != nullptr) {
    healthy->record(seconds);
  }
  if (outcome == Outcome::kThrew) {
    requests_error_.add(count);
    return;
  }
  requests_ok_.add(converged);
  requests_unconverged_.add(count - converged);
  std::lock_guard<std::mutex> lock(mutex_);
  if (outcome == Outcome::kRouted) routed_requests_ += count;
  busy_seconds_ += seconds;
}

SolveStats SolveService::solve(Grid2D& x, const Grid2D& b,
                               const SolveRequest& request) {
  SolveStats stats;
  int index = -1;
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  try {
    validate_request(*gen->config, request);
    const SessionRef bound = session_in(gen, x.n());
    index = request.accuracy_index >= 0
                ? request.accuracy_index
                : bound->accuracy_index(request.target_accuracy);
    stats = request.fmg
                ? bound->solve_fmg(x, b, index, request.profile,
                                   request.residual)
                : bound->solve_v(x, b, index, request.profile,
                                 request.residual);
    stats.generation = gen->id;
  } catch (...) {
    account(Outcome::kThrew, 1, 0, now_seconds() - t0);
    throw;
  }
  enforce_policy(*gen);
  account(Outcome::kServed, 1, stats.converged ? 1 : 0, stats.seconds,
          stats.converged ? &latency_histogram(stats.n, index) : nullptr);
  observe_drift(gen, stats, index, request.fmg);
  return stats;
}

std::vector<SolveStats> SolveService::solve_batch(std::span<Grid2D* const> xs,
                                                  const Grid2D& b_template,
                                                  const SolveRequest& request) {
  std::vector<SolveStats> all;
  if (xs.empty()) return all;
  const auto count = static_cast<std::int64_t>(xs.size());
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  int index = -1;
  try {
    validate_request(*gen->config, request);
    const SessionRef bound = session_in(gen, b_template.n());
    index = request.accuracy_index >= 0
                ? request.accuracy_index
                : bound->accuracy_index(request.target_accuracy);
    batch_size_.record(static_cast<double>(xs.size()));
    all = request.fmg ? bound->solve_batch_fmg(xs, b_template, index,
                                               request.profile,
                                               request.residual)
                      : bound->solve_batch_v(xs, b_template, index,
                                             request.profile,
                                             request.residual);
    for (SolveStats& stats : all) stats.generation = gen->id;
  } catch (...) {
    // A throw mid-walk fails every request in the batch.
    account(Outcome::kThrew, count, 0, now_seconds() - t0);
    throw;
  }
  // One latency sample per batch: the fused walk has one wall-clock, so
  // per-RHS samples would overcount the histogram K-fold.  The sample is
  // healthy only when EVERY RHS converged; outcome counters still split
  // per RHS.  Batched samples never feed the drift watcher — batch
  // wall-clock grows with K and is incomparable to the solo per-solve
  // baseline.
  std::int64_t converged = 0;
  for (const SolveStats& stats : all) {
    if (stats.converged) ++converged;
  }
  const double seconds = now_seconds() - t0;
  enforce_policy(*gen);
  account(Outcome::kServed, count, converged, seconds,
          converged == count ? &latency_histogram(b_template.n(), index)
                             : nullptr);
  return all;
}

void SolveService::observe_drift(const std::shared_ptr<Generation>& gen,
                                 const SolveStats& stats, int accuracy_index,
                                 bool fmg) {
  if (watcher_ == nullptr) return;
  // Stragglers that bound a generation which has since been swapped out
  // measured the *old* config; mixing them into the fresh baseline's
  // windows would read as instant drift of the new generation.
  if (gen->id != generation()) return;
  // A solve that failed its residual audit is not a healthy latency
  // sample — this is why the honest converged flag had to come first.
  if (!stats.converged) return;
  // V-cycle and FMG latencies live in separate baseline keys: FMG solves
  // are legitimately slower (the ramp), and mixing the two modes into
  // one window reads as drift whenever the workload mix shifts.
  const obs::DriftObservation verdict =
      watcher_->observe(stats.n, accuracy_index, stats.seconds, fmg);
  if (verdict.window_complete) {
    (verdict.drifted ? drift_windows_drifted_ : drift_windows_ok_).add(1);
  }
  if (verdict.retune) start_retune();
}

void SolveService::start_retune() {
  if (!retune_fn_) return;
  bool expected = false;
  if (!retune_in_progress_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return;  // a retune is already running; the watcher will re-fire later
  }
  // The CAS read false, so any previous retune thread has published its
  // result and is exiting; join reclaims it before the handle is reused.
  if (retune_thread_.joinable()) retune_thread_.join();
  retunes_total_.add(1);
  retune_gauge_.set(1.0);
  retune_thread_ = std::thread([this] {
    try {
      RetuneResult result = retune_fn_();
      install(std::move(result.config), std::move(result.baseline),
              std::move(result.engine));
    } catch (...) {
      // A failed retune keeps serving the current generation; the watcher
      // streak was reset when it fired, so it re-arms on continued drift.
      retune_failures_total_.add(1);
    }
    retune_gauge_.set(0.0);
    retune_in_progress_.store(false, std::memory_order_release);
  });
}

void SolveService::enable_operator_routing(FamilyRetuneFn retune) {
  family_retune_fn_ = std::move(retune);
}

obs::Counter& SolveService::route_counter(const std::string& family,
                                          const std::string& outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = route_counters_.find({family, outcome});
    if (it != route_counters_.end()) return *it->second;
  }
  obs::Counter& counter = metrics_.counter("pbmg_route_total{family=\"" +
                                           family + "\",outcome=\"" +
                                           outcome + "\"}");
  std::lock_guard<std::mutex> lock(mutex_);
  route_counters_.emplace(std::make_pair(family, outcome), &counter);
  return counter;
}

void SolveService::install_family(tune::TunedConfig config) {
  const std::string name = config.op_family;
  auto fresh = std::make_shared<const tune::TunedConfig>(std::move(config));
  std::vector<Slot> dropped;
  {
    // Holding mutex_ orders this against install(): an extension never
    // lands on a generation whose extensions install() already copied.
    std::lock_guard<std::mutex> lock(mutex_);
    Generation& gen = *current_;
    std::lock_guard<std::mutex> gen_lock(gen.mutex);
    gen.family_configs[name] = std::move(fresh);
    // Drop the bindings this install supersedes: operators whose nearest
    // family is the one just trained but which were being served by a
    // stand-in.  Their next request re-routes onto the new tables; every
    // other entry — and every in-flight solve, which holds its own
    // shared_ptr — is untouched.
    auto it = gen.cache.begin();
    while (it != gen.cache.end()) {
      const OpBinding* binding = it->second.binding.get();
      if (binding != nullptr && binding->nearest_family == name &&
          binding->served_family != name) {
        add_bytes(gen, -static_cast<std::ptrdiff_t>(it->second.bytes));
        dropped.push_back(std::move(it->second));
        it = gen.cache.erase(it);
      } else {
        ++it;
      }
    }
  }
  // `dropped` destructs here, outside the locks: each binding tears down a
  // DynamicSolver's coefficient hierarchies and executors.
}

std::shared_ptr<const SolveService::OpBinding> SolveService::binding_for(
    const std::shared_ptr<Generation>& gen, const grid::StencilOp& op) {
  const CacheKey key{true, op.identity(), op.n()};
  return cached(gen, key, [&](const FamilyTable& extensions) {
    auto binding = std::make_shared<OpBinding>();
    binding->op = op;  // pins identity() against allocator reuse
    const std::vector<grid::FamilyMatch> ranked =
        grid::rank_families(grid::fingerprint(op));
    binding->nearest = ranked.front().family;
    binding->nearest_family = to_string(ranked.front().family);
    // The generation's config serves as the fallback tables for its own
    // family unless an install_family extension superseded it.
    FamilyTable table = extensions;
    table.emplace(gen->config->op_family, gen->config);
    // Escalation ladder: every family with tables deep enough for this
    // operator, nearest first.  The served family is the first rung.
    const int level = level_of_size(op.n());
    std::vector<tune::FamilyConfig> ladder;
    for (const grid::FamilyMatch& match : ranked) {
      const std::string name = to_string(match.family);
      auto it = table.find(name);
      if (it == table.end() || it->second->max_level() < level) continue;
      if (ladder.empty()) {
        binding->served_family = name;
        binding->served_distance = match.distance;
      }
      ladder.push_back({name, it->second});
    }
    if (ladder.empty()) {
      throw ConfigError(
          "SolveService: no tuned family covers level " +
          std::to_string(level) + " (n=" + std::to_string(op.n()) +
          ") — train deeper tables before routing this size");
    }
    binding->matched = binding->served_distance <= kMatchThreshold;
    binding->served_config = ladder.front().config;
    binding->solver = std::make_shared<const tune::DynamicSolver>(
        op, std::move(ladder), gen->engine->scheduler(),
        gen->engine->direct(), gen->engine->scratch(),
        gen->engine->relax());
    const std::size_t bytes = binding->solver->footprint_bytes();
    return Slot{nullptr, std::move(binding), bytes, 0};
  }).binding;
}

bool SolveService::start_family_retune(OperatorFamily family) {
  if (!family_retune_fn_) return false;
  const std::string name = to_string(family);
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (retuned_families_.count(name) != 0) return false;
  }
  bool expected = false;
  if (!retune_in_progress_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    // A drift or family retune is mid-flight.  Deliberately do NOT mark
    // this family handled: a later request for the same fingerprint
    // retries once the thread frees up.
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (!retuned_families_.insert(name).second) {
      // Lost a race with another thread that marked it first.
      retune_in_progress_.store(false, std::memory_order_release);
      return false;
    }
  }
  // The CAS read false, so any previous retune thread has published its
  // result and is exiting; join reclaims it before the handle is reused.
  if (retune_thread_.joinable()) retune_thread_.join();
  family_retunes_total_.add(1);
  retune_gauge_.set(1.0);
  retune_thread_ = std::thread([this, family, name] {
    try {
      install_family(family_retune_fn_(family));
    } catch (...) {
      retune_failures_total_.add(1);
      // A failed training run keeps serving the stand-in family and
      // re-arms: the next request for this fingerprint retries.
      std::lock_guard<std::mutex> lock(route_mutex_);
      retuned_families_.erase(name);
    }
    retune_gauge_.set(0.0);
    retune_in_progress_.store(false, std::memory_order_release);
  });
  return true;
}

SolveStats SolveService::solve_op(const grid::StencilOp& op, Grid2D& x,
                                  const Grid2D& b,
                                  const SolveRequest& request,
                                  tune::DynamicResult* detail) {
  SolveStats stats;
  std::shared_ptr<const OpBinding> binding;
  tune::DynamicResult result;
  bool retune_fired = false;
  const std::shared_ptr<Generation> gen = current_generation();
  const double t0 = now_seconds();
  try {
    if (request.fmg) {
      throw ConfigError(
          "SolveService: solve_op drives tuned V variants; FMG requests "
          "must go through solve() on a trained family");
    }
    // A request the service rejects trains nothing: the checks no tables
    // decide run before the binding (DynamicSolver::solve makes the last
    // two only once a retune has fired), the ladder index after it, and
    // all before an unmatched operator fires its family retune.
    validate_target(request);
    PBMG_CHECK(request.accuracy_index >= 0 || request.target_accuracy >= 1.0,
               "SolveService: solve_op target_accuracy must be >= 1");
    PBMG_CHECK(x.n() == op.n() && b.n() == op.n(),
               "SolveService: solve_op operand size mismatch (operator n=" +
                   std::to_string(op.n()) + ")");
    binding = binding_for(gen, op);
    validate_request(*binding->served_config, request);
    if (!binding->matched) {
      // Outside every tuned family's threshold: serve from the nearest
      // stand-in, and train the real family in the background — once.
      // (When the nearest family already has tables, the binding is
      // served by them and there is nothing better to train.)
      if (binding->served_family != binding->nearest_family) {
        retune_fired = start_family_retune(binding->nearest);
      }
    }
    const double target =
        request.accuracy_index >= 0
            ? binding->served_config->accuracies()[static_cast<std::size_t>(
                  request.accuracy_index)]
            : request.target_accuracy;
    result = binding->solver->solve(x, b, target, tune::kInvocationBudget,
                                    request.profile.get());
    stats.seconds = result.seconds;
    stats.n = binding->solver->n();
    stats.level = binding->solver->level();
    stats.accuracy_index = result.final_accuracy_index;
    stats.iterations = result.iterations;
    stats.converged = result.converged;
    stats.initial_residual = result.initial_residual;
    stats.final_residual = result.final_residual;
    stats.residual_checked = true;
    stats.generation = gen->id;
    stats.phases = request.profile;
  } catch (...) {
    account(Outcome::kThrew, 1, 0, now_seconds() - t0);
    throw;
  }
  // Routing telemetry.  Outcome precedence: a request that fired a
  // family retune is the interesting event even if it also escalated;
  // an escalated request (cross-family switch mid-solve, or served
  // outside the threshold) beats a plain match.
  const char* outcome = retune_fired ? "retune"
                        : (result.family_switches > 0 || !binding->matched)
                            ? "escalated"
                            : "matched";
  route_counter(binding->served_family, outcome).add(1);
  route_distance_.record(binding->served_distance);
  binding.reset();  // the request's pin
  enforce_policy(*gen);
  // Routed solves do not land in the per-(n, acc) latency histograms or
  // the drift watcher: their adaptive invocation count makes the latency
  // incomparable to the fixed-shape baseline distribution.
  account(Outcome::kRouted, 1, stats.converged ? 1 : 0, stats.seconds);
  if (detail != nullptr) *detail = std::move(result);
  return stats;
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  std::shared_ptr<Generation> gen;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.busy_seconds = busy_seconds_;
    out.routed_requests = routed_requests_;
    out.retired_generations = retired_.size();
    gen = current_;
  }
  {
    std::lock_guard<std::mutex> lock(gen->mutex);
    out.sessions = gen->cache.size();
  }
  // Every other count is read from the registry counter that records it,
  // so the exported metrics and these stats cannot disagree.
  out.requests = requests_ok_.value() + requests_unconverged_.value();
  out.failures = requests_error_.value();
  out.evictions = session_evictions_.value();
  out.trims = trims_total_.value();
  out.trim_bytes = trim_bytes_total_.value();
  out.drifted_windows = drift_windows_drifted_.value();
  out.drift_windows = drift_windows_ok_.value() + out.drifted_windows;
  out.retunes = retunes_total_.value();
  out.family_retunes = family_retunes_total_.value();
  out.generation = generation();
  out.session_bytes = session_bytes_.load(std::memory_order_acquire);
  out.scratch_hit_rate = gen->engine->scratch().stats().hit_rate();
  out.scheduler_steals = gen->engine->scheduler().steal_count();
  return out;
}

std::size_t SolveService::trim() {
  // Trim EVERY retained generation's engine, deduplicated by identity —
  // after an install the retired generation's engine still holds its
  // prewarmed pool, and trimming only the live engine (the old bug) left
  // those bytes resident until process exit.  Generations that share an
  // engine (config-only installs) are trimmed once.
  std::vector<std::shared_ptr<Generation>> gens;
  std::vector<std::shared_ptr<Generation>> reclaimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reclaim first: an unpinned retired generation's pool bytes are
    // better returned by destruction than kept hot by a trim.
    reclaim_retired_locked(reclaimed);
    gens.reserve(retired_.size() + 1);
    for (const auto& gen : retired_) gens.push_back(gen);
    gens.push_back(current_);
  }
  reclaimed.clear();  // destruct retired sessions/engines outside mutex_
  std::size_t freed = 0;
  std::vector<Engine*> seen;
  for (const auto& gen : gens) {
    if (std::find(seen.begin(), seen.end(), gen->engine) != seen.end()) {
      continue;
    }
    seen.push_back(gen->engine);
    freed += gen->engine->scratch().trim();
  }
  trims_total_.add(1);
  trim_bytes_total_.add(static_cast<std::int64_t>(freed));
  return freed;
}

Engine& SolveService::engine() const { return *current_generation()->engine; }

const tune::TunedConfig& SolveService::config() const {
  // The referent lives as long as its generation: while it is live, and
  // after an install() until the retired generation's last pin drops and
  // reclaim_retired_locked destroys it (see the header's contract).
  return *current_generation()->config;
}

obs::RegistrySnapshot SolveService::metrics_snapshot() {
  const std::shared_ptr<Generation> gen = current_generation();
  gen->engine->publish_metrics(metrics_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.gauge("pbmg_service_busy_seconds").set(busy_seconds_);
  }
  {
    std::lock_guard<std::mutex> lock(gen->mutex);
    metrics_.gauge("pbmg_service_sessions")
        .set(static_cast<double>(gen->cache.size()));
  }
  return metrics_.snapshot();
}

}  // namespace pbmg
