// The serving workloads.  Each one pre-generates a pool of held-out
// inputs with oracle solutions, sets its service up several times (the
// median is setup_s), then runs closed-loop clients for the measured
// window: each sends its next request when its previous one returns.
// Every request's output is checked after its timed call returns: oracle
// accuracy for solve/solve_batch, the residual audit for solve_op, and
// memcmp parity of each batch slot against its solo solve.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "engine/solve_service.h"
#include "grid/level.h"
#include "obs/phase_profile.h"
#include "tune/trainer.h"

namespace perfbench {

namespace {

/// Accuracy every V-cycle request of the serving workloads asks for, and
/// the FULL-MULTIGRID target of poisson-large (the paper's Fig. 12).
constexpr double kServeTarget = 1e5;
constexpr double kLargeTarget = 1e9;
constexpr std::size_t kBatchK = 4;

/// Slack of the oracle check for fixed-iteration plans of
/// variable-coefficient tables.  A tuned cell runs a fixed iteration count
/// chosen on two training inputs; on held-out jump-coefficient inputs the
/// pinned 10^5 cell reaches 0.2x-20x its target (40 inputs measured),
/// because one slow near-kernel mode with a random weight dominates the
/// remaining error.  Such requests pass at >= target / kVarcoefSlack;
/// Poisson requests must reach the full target.
constexpr double kVarcoefSlack = 10.0;

/// One request class of a workload's mix.
struct RequestClass {
  const char* name;
  double weight;
};

/// What one client records over a window.
struct Tally {
  std::vector<double> latency_ms;
  std::vector<int> cls;
  std::int64_t rhs = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> worst_accuracy_ratio;  ///< per class: min acc/target
  std::string first_failure;

  void merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    cls.insert(cls.end(), o.cls.begin(), o.cls.end());
    rhs += o.rhs;
    attempted += o.attempted;
    failed += o.failed;
    if (worst_accuracy_ratio.size() < o.worst_accuracy_ratio.size()) {
      worst_accuracy_ratio.resize(o.worst_accuracy_ratio.size(), INFINITY);
    }
    for (std::size_t i = 0; i < o.worst_accuracy_ratio.size(); ++i) {
      worst_accuracy_ratio[i] =
          std::min(worst_accuracy_ratio[i], o.worst_accuracy_ratio[i]);
    }
    if (first_failure.empty()) first_failure = o.first_failure;
  }

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  void accuracy(int klass, double achieved, double target) {
    if (worst_accuracy_ratio.size() <= static_cast<std::size_t>(klass)) {
      worst_accuracy_ratio.resize(static_cast<std::size_t>(klass) + 1,
                                  INFINITY);
    }
    auto& worst = worst_accuracy_ratio[static_cast<std::size_t>(klass)];
    worst = std::min(worst, achieved / target);
  }
};

/// Context a request runs under: its client's tally and RNG, and — in a
/// traced window — the request id its spans share.
struct Ctx {
  Tally& tally;
  Rng& rng;
  std::int64_t request = 0;
  std::int64_t parent = 0;
  bool profiled = false;
};

/// Base of the serving workloads: an engine + service built by setup(),
/// and a pool of inputs built once by prepare().
class Serving {
 public:
  virtual ~Serving() = default;
  /// Closed-loop clients sending requests at once.
  virtual int clients() const = 0;
  /// Set-ups whose median is setup_s: enough for about a second of them.
  virtual int setup_reps() const { return 5; }
  virtual std::vector<RequestClass> classes() const = 0;
  /// Family tune_s retrains: the one whose tables serve most requests.
  virtual OperatorFamily family() const = 0;
  /// Grid side whose first bind engine.bind_ms reports.
  virtual int bind_n() const = 0;
  /// Builds the input pools (not timed).
  virtual void prepare(const Options& options) = 0;
  /// Engine construction → first timed request.  Timed by the caller.
  virtual void setup(const Options& options) = 0;
  /// Runs one request of class `klass`; returns its latency in ms.
  virtual double request(int klass, Ctx& ctx) = 0;
  /// Reference outputs the correctness checks compare against, computed
  /// after setup and outside every timed window.
  virtual void prepare_checks() {}

  void teardown() {
    service_.reset();
    engine_.reset();
  }
  void set_setup_span(std::int64_t id) { setup_span_ = id; }
  SolveService& service() { return *service_; }
  Engine& engine() { return *engine_; }

  /// Per-size phase profiles filled by profiled requests.
  std::map<int, std::shared_ptr<obs::PhaseProfile>> profiles;
  std::vector<double> bind_ms;  ///< first bind of bind_n() per setup
  std::vector<double> load_ms;  ///< TunedConfig::load per call

 protected:
  tune::TunedConfig load(const Options& options, OperatorFamily family,
                         int level) {
    Span span("tune.TunedConfig::load", setup_span_);
    const double t0 = now_s();
    tune::TunedConfig config = load_table(options, family, level);
    load_ms.push_back((now_s() - t0) * 1e3);
    return config;
  }
  void start_engine(bool packed) {
    Span span("engine.Engine", setup_span_);
    engine_ = make_engine(worker_count(), packed);
  }
  void bind(int n) {
    Span span("engine.SolveService::session", setup_span_);
    const double t0 = now_s();
    service_->session(n);
    const double ms = (now_s() - t0) * 1e3;
    if (n == bind_n()) bind_ms.push_back(ms);
  }
  SolveRequest v_request(int n, bool profiled) {
    SolveRequest r;
    r.target_accuracy = kServeTarget;
    if (profiled) r.profile = profile_for(n);
    return r;
  }
  std::shared_ptr<obs::PhaseProfile> profile_for(int n) {
    auto& p = profiles[n];
    if (!p) p = std::make_shared<obs::PhaseProfile>();
    return p;
  }

  /// Solo V (or FMG) solve through SolveService::solve, checked against
  /// the oracle.
  double solo(int klass, Ctx& ctx, const tune::TrainingInstance& inst,
              double target, bool fmg, double slack = 1.0) {
    const int n = inst.problem.n();
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    SolveRequest r = v_request(n, ctx.profiled);
    r.target_accuracy = target;
    r.fmg = fmg;
    SolveStats stats;
    const double t0 = now_s();
    {
      Span span("engine.SolveService::solve", ctx.parent, ctx.request);
      stats = service_->solve(x, inst.problem.b, r);
    }
    const double ms = (now_s() - t0) * 1e3;
    Span check("bench.check", ctx.parent, ctx.request);
    const double acc =
        achieved_accuracy(inst, inst.problem.x0, x, engine_->scheduler());
    ctx.tally.accuracy(klass, acc, target);
    ctx.tally.check(stats.converged && acc >= target / slack,
                    "solve n=" + std::to_string(n) + " reached accuracy " +
                        std::to_string(acc) + " < " + std::to_string(target));
    ++ctx.tally.rhs;
    return ms;
  }

  /// Routed solve through SolveService::solve_op, checked by its
  /// residual audit.
  double routed(Ctx& ctx, const grid::StencilOp& op,
                const tune::TrainingInstance& inst) {
    Grid2D x(op.n(), 0.0);
    x.copy_from(inst.problem.x0);
    SolveRequest r = v_request(op.n(), ctx.profiled);
    SolveStats stats;
    const double t0 = now_s();
    {
      Span span("engine.SolveService::solve_op", ctx.parent, ctx.request);
      stats = service_->solve_op(op, x, inst.problem.b, r);
    }
    const double ms = (now_s() - t0) * 1e3;
    ctx.tally.check(stats.converged,
                    "solve_op n=" + std::to_string(op.n()) +
                        " failed its residual audit");
    ++ctx.tally.rhs;
    return ms;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SolveService> service_;
  std::int64_t setup_span_ = 0;  ///< parent of the setup's spans
};

int side(const Options& options, int full, int tiny) {
  return options.tiny ? tiny : full;
}

// ------------------------------------------------------ poisson-large --

/// 1 client, tuned FULL-MULTIGRID to 10^9 on unbiased Poisson inputs at
/// n=1025 (the paper's Fig. 12 setting).
class PoissonLarge final : public Serving {
 public:
  int clients() const override { return 1; }
  std::vector<RequestClass> classes() const override {
    return {{"fmg-1e9", 1.0}};
  }
  OperatorFamily family() const override { return OperatorFamily::kPoisson; }
  int bind_n() const override { return n_; }

  void prepare(const Options& options) override {
    n_ = side(options, 1025, 129);
    const auto engine = make_engine(worker_count(), false);
    pool_ = make_pool(grid::StencilOp::poisson(n_), options.tiny ? 2 : 4,
                      options.seed, 1, engine->scheduler());
  }
  void setup(const Options& options) override {
    start_engine(false);
    auto config = load(options, OperatorFamily::kPoisson, level_of_size(n_));
    {
      Span span("engine.SolveService", setup_span_);
      service_ = std::make_unique<SolveService>(*engine_, std::move(config));
    }
    bind(n_);
    Tally warm;
    Rng rng(0);
    Ctx ctx{warm, rng, 0, setup_span_, false};
    request(0, ctx);
  }
  double request(int klass, Ctx& ctx) override {
    const auto& inst = pool_[ctx.rng.uniform_index(pool_.size())];
    return solo(klass, ctx, inst, kLargeTarget, /*fmg=*/true);
  }

 private:
  int n_ = 0;
  std::vector<tune::TrainingInstance> pool_;
};

// ------------------------------------------------------ varcoef-serve --

/// 1 client on one service bound to the jump-coefficient tables, with
/// the θ=45° tables installed as a family extension: solo V solves, K=4
/// batches, and routed solves of jump, θ=45° and smooth operators.
class VarcoefServe final : public Serving {
 public:
  int clients() const override { return 1; }
  std::vector<RequestClass> classes() const override {
    // Latency bands, fastest first: op-jump and op-smooth (15%), solo
    // (70%: p50 sits at its median), batch4 (12%: p90 sits at its 40th
    // percentile), op-t45 (3%).
    return {{"solo", 0.70},
            {"batch4", 0.12},
            {"op-jump", 0.08},
            {"op-t45", 0.03},
            {"op-smooth", 0.07}};
  }
  OperatorFamily family() const override {
    return OperatorFamily::kJumpCoefficient;
  }
  int bind_n() const override { return n_; }

  void prepare(const Options& options) override {
    n_ = side(options, 513, 65);
    const auto engine = make_engine(worker_count(), true);
    auto& sched = engine->scheduler();
    ops_ = {make_operator(n_, OperatorFamily::kJumpCoefficient),
            make_operator(n_, OperatorFamily::kAnisoTheta45),
            make_operator(n_, OperatorFamily::kSmoothVariable)};
    const int count = options.tiny ? 2 : 3;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      pools_.push_back(make_pool(ops_[i], count, options.seed, 10 + i, sched));
    }
    // Batch inputs: one shared right-hand side per set; slot 0 starts from
    // the canonical zero interior, the others from random interiors.
    Rng rng = Rng(options.seed).split(20);
    for (int set = 0; set < 2; ++set) {
      Batch batch;
      batch.instance = static_cast<std::size_t>(set) % pools_[0].size();
      const auto& inst = pools_[0][batch.instance];
      for (std::size_t k = 0; k < kBatchK; ++k) {
        Grid2D x(n_, 0.0);
        x.copy_from(inst.problem.x0);
        if (k > 0) {
          for (int i = 1; i < n_ - 1; ++i) {
            for (int j = 1; j < n_ - 1; ++j) {
              x(i, j) = rng.uniform(-4294967296.0, 4294967296.0);
            }
          }
        }
        batch.x0.push_back(std::move(x));
      }
      batches_.push_back(std::move(batch));
    }
  }

  void setup(const Options& options) override {
    start_engine(true);
    const int level = level_of_size(n_);
    auto jump = load(options, OperatorFamily::kJumpCoefficient, level);
    auto t45 = load(options, OperatorFamily::kAnisoTheta45, level);
    {
      Span span("engine.SolveService", setup_span_);
      service_ = std::make_unique<SolveService>(*engine_, std::move(jump));
    }
    {
      Span span("engine.SolveService::install_family", setup_span_);
      service_->install_family(std::move(t45));
    }
    bind(n_);
    Tally warm;
    Rng rng(0);
    Ctx ctx{warm, rng, 0, setup_span_, false};
    for (int klass = 0; klass < static_cast<int>(classes().size()); ++klass) {
      request(klass, ctx);
    }
  }

  /// Solo references for every batch slot, computed through the service
  /// outside every timed window.
  void prepare_checks() override {
    for (Batch& batch : batches_) {
      const auto& inst = pools_[0][batch.instance];
      batch.reference.clear();
      batch.reference_ok = true;
      for (const Grid2D& x0 : batch.x0) {
        Grid2D x(n_, 0.0);
        x.copy_from(x0);
        SolveRequest r = v_request(n_, false);
        const SolveStats stats = service_->solve(x, inst.problem.b, r);
        const double acc =
            achieved_accuracy(inst, x0, x, engine_->scheduler());
        batch.reference_ok = batch.reference_ok && stats.converged &&
                             acc >= kServeTarget / kVarcoefSlack;
        batch.reference.push_back(std::move(x));
      }
    }
  }

  double request(int klass, Ctx& ctx) override {
    switch (klass) {
      case 0:
        return solo(klass, ctx, pick(0, ctx), kServeTarget, false,
                    kVarcoefSlack);
      case 1:
        return batch(ctx);
      default: {
        const std::size_t which = static_cast<std::size_t>(klass - 2);
        return routed(ctx, ops_[which], pick(which, ctx));
      }
    }
  }

 private:
  struct Batch {
    std::size_t instance = 0;
    std::vector<Grid2D> x0;
    std::vector<Grid2D> reference;
    bool reference_ok = false;
  };

  const tune::TrainingInstance& pick(std::size_t op, Ctx& ctx) {
    const auto& pool = pools_[op];
    return pool[ctx.rng.uniform_index(pool.size())];
  }

  double batch(Ctx& ctx) {
    const Batch& set = batches_[ctx.rng.uniform_index(batches_.size())];
    const auto& inst = pools_[0][set.instance];
    std::vector<Grid2D> xs = set.x0;
    std::vector<Grid2D*> ptrs;
    for (Grid2D& x : xs) ptrs.push_back(&x);
    const SolveRequest r = v_request(n_, ctx.profiled);
    std::vector<SolveStats> stats;
    const double t0 = now_s();
    {
      Span span("engine.SolveService::solve_batch", ctx.parent, ctx.request);
      stats = service_->solve_batch(ptrs, inst.problem.b, r);
    }
    const double ms = (now_s() - t0) * 1e3;
    Span check("bench.check", ctx.parent, ctx.request);
    for (std::size_t k = 0; k < kBatchK; ++k) {
      // A slot passes when it is bitwise its solo solve, and that solo
      // solve reached the target against the oracle.
      const bool same = k < set.reference.size() &&
                        bitwise_equal(xs[k], set.reference[k]);
      ctx.tally.check(stats[k].converged && same && set.reference_ok,
                      "batch slot " + std::to_string(k) +
                          " differs from its solo solve");
    }
    ctx.tally.rhs += static_cast<std::int64_t>(kBatchK);
    return ms;
  }

  int n_ = 0;
  std::vector<grid::StencilOp> ops_;  ///< jump, θ=45°, smooth
  std::vector<std::vector<tune::TrainingInstance>> pools_;
  std::vector<Batch> batches_;
};

// ----------------------------------------------------- small-requests --

/// 3 clients, V solves to 10^5 at n ∈ {33, 65, 129}: mostly Poisson
/// through solve(), a few jump operators (n=129) through solve_op, under a
/// session byte budget below the workload's demand.
class SmallRequests final : public Serving {
 public:
  int clients() const override { return 3; }
  int setup_reps() const override { return 51; }
  std::vector<RequestClass> classes() const override {
    // Latency bands, fastest first: n=33 and n=65 (30%), n=129 (50%: p50
    // sits at its 40th percentile), routed jump n=129 (20%: p90 sits at
    // its median).
    return {{"poisson-33", 0.15},
            {"poisson-65", 0.15},
            {"poisson-129", 0.50},
            {"op-jump", 0.20}};
  }
  OperatorFamily family() const override { return OperatorFamily::kPoisson; }
  int bind_n() const override { return sizes_.back(); }

  void prepare(const Options& options) override {
    sizes_ = options.tiny ? std::vector<int>{9, 17, 33}
                          : std::vector<int>{33, 65, 129};
    const auto engine = make_engine(worker_count(), true);
    auto& sched = engine->scheduler();
    const int count = options.tiny ? 2 : 4;
    for (std::size_t s = 0; s < sizes_.size(); ++s) {
      poisson_.push_back(make_pool(grid::StencilOp::poisson(sizes_[s]), count,
                                   options.seed, 30 + s, sched));
    }
    jump_op_ = make_operator(sizes_.back(), OperatorFamily::kJumpCoefficient);
    jump_ = make_pool(jump_op_, count, options.seed, 40, sched);
    // Session byte budget: any two of the three Poisson sessions fit, all
    // three do not, so a bind evicts the least recently used one.
    auto poisson = load_table(options, OperatorFamily::kPoisson,
                              level_of_size(sizes_.back()));
    SolveService probe(*engine, poisson);
    std::size_t demand = 0;
    for (const int n : sizes_) demand += probe.session(n)->footprint_bytes();
    budget_ = demand - probe.session(sizes_.front())->footprint_bytes();
    std::fprintf(stderr,
                 "small-requests: session byte budget %zu of the %zu bytes "
                 "the Poisson sessions keep resident\n",
                 budget_, demand);
  }

  void setup(const Options& options) override {
    start_engine(true);
    const int level = level_of_size(sizes_.back());
    auto poisson = load(options, OperatorFamily::kPoisson, level);
    auto jump = load(options, OperatorFamily::kJumpCoefficient, level);
    ServicePolicy policy;
    policy.max_session_bytes = budget_;
    {
      Span span("engine.SolveService", setup_span_);
      service_ = std::make_unique<SolveService>(*engine_, std::move(poisson),
                                                policy);
    }
    {
      Span span("engine.SolveService::install_family", setup_span_);
      service_->install_family(std::move(jump));
    }
    for (const int n : sizes_) bind(n);
    Tally warm;
    Rng rng(0);
    Ctx ctx{warm, rng, 0, setup_span_, false};
    routed(ctx, jump_op_, jump_[0]);
  }

  double request(int klass, Ctx& ctx) override {
    if (klass < 3) {
      const auto& pool = poisson_[static_cast<std::size_t>(klass)];
      return solo(klass, ctx, pool[ctx.rng.uniform_index(pool.size())],
                  kServeTarget, false);
    }
    return routed(ctx, jump_op_, jump_[ctx.rng.uniform_index(jump_.size())]);
  }

 private:
  std::vector<int> sizes_;
  std::vector<std::vector<tune::TrainingInstance>> poisson_;
  grid::StencilOp jump_op_;
  std::vector<tune::TrainingInstance> jump_;
  std::size_t budget_ = 0;
};

std::unique_ptr<Serving> make_workload(const std::string& name) {
  if (name == "poisson-large") return std::make_unique<PoissonLarge>();
  if (name == "varcoef-serve") return std::make_unique<VarcoefServe>();
  if (name == "small-requests") return std::make_unique<SmallRequests>();
  throw std::runtime_error(
      "unknown workload '" + name +
      "' (expected poisson-large, varcoef-serve or small-requests)");
}

// -------------------------------------------------------- closed loop --

struct Window {
  Tally tally;
  double wall_s = 0.0;
};

/// The request schedule: every class repeated weight x 100 times, in an
/// order shuffled once from a fixed seed and then cycled, so the mix holds
/// its proportions exactly over every 100 requests.  The order is part of
/// the workload, not of its inputs: it decides which sessions the byte
/// budget evicts, and a seed-dependent order would change that share.
std::vector<int> schedule(const std::vector<RequestClass>& classes) {
  std::vector<int> slots;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const int count = static_cast<int>(std::lround(classes[k].weight * 100));
    slots.insert(slots.end(), static_cast<std::size_t>(count),
                 static_cast<int>(k));
  }
  Rng rng(100);
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.uniform_index(i)]);
  }
  return slots;
}

/// Runs every client closed-loop for `seconds`: each sends its next
/// request when its previous one returns.  Client c of k starts c/k of the
/// way into the schedule, so clients do not send the same class in step.
/// `traced` wraps each request in spans and attaches the per-size phase
/// profiles.
Window serve(Serving& w, const Options& options, double seconds, bool traced,
             std::uint64_t salt) {
  const std::vector<int> slots = schedule(w.classes());
  const auto clients = static_cast<std::size_t>(w.clients());
  std::vector<Tally> tallies(clients);
  std::atomic<std::int64_t> request_ids{0};
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  const auto client = [&](std::size_t c) {
    Tally& tally = tallies[c];
    Rng rng = Rng(options.seed).split(salt * 64 + c);
    for (std::size_t i = c * slots.size() / clients; now_s() < deadline;
         ++i) {
      const int k = slots[i % slots.size()];
      std::int64_t id = 0;
      std::optional<Span> root;
      if (traced) {
        id = request_ids.fetch_add(1) + 1;
        root.emplace("bench.request", 0, id);
      }
      Ctx ctx{tally, rng, id, root ? root->id() : 0, traced};
      try {
        tally.latency_ms.push_back(w.request(k, ctx));
        tally.cls.push_back(k);
      } catch (const std::exception& e) {
        tally.check(false, std::string("request threw: ") + e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& t : threads) t.join();
  Window out;
  out.wall_s = now_s() - t0;
  for (const Tally& t : tallies) out.tally.merge(t);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One from-scratch Trainer::train() (V + FMG tables) of `family` on a
/// 1-worker engine; returns its wall seconds, and the 10^5 V solve time of
/// the fresh tables on a held-out instance in `solve_ms`.
double train_once(OperatorFamily family, const Options& options,
                  std::uint64_t salt, double& solve_ms, Tally& tally) {
  // Comparable training cost per family: Poisson to n=129, the
  // variable-coefficient families to n=65.
  const int level =
      options.tiny ? 4 : (family == OperatorFamily::kPoisson ? 7 : 6);
  const int n = size_of_level(level);
  const auto engine = make_engine(1, family != OperatorFamily::kPoisson);
  tune::TrainerOptions trainer;
  trainer.max_level = level;
  trainer.op_family = family;
  tune::TunedConfig config;
  const double t0 = now_s();
  {
    Span span("tune.Trainer::train");
    config = tune::Trainer(trainer, *engine).train();
  }
  const double seconds = now_s() - t0;
  const grid::StencilOp op = make_operator(n, family);
  const auto inst =
      make_pool(op, 1, options.seed, salt, engine->scheduler())[0];
  SolveSession session(*engine, config, op);
  Grid2D x(n, 0.0);
  x.copy_from(inst.problem.x0);
  const SolveStats stats = session.solve_v(
      x, inst.problem.b, session.accuracy_index(kServeTarget));
  solve_ms = stats.seconds * 1e3;
  tally.accuracy(0, achieved_accuracy(inst, inst.problem.x0, x,
                                      engine->scheduler()),
                 kServeTarget);
  return seconds;
}

/// Lower quartile of the wall time of one from-scratch train of the
/// workload's family, and the median solve time of the tables just
/// trained.  One train per core runs at a time, each on its own 1-worker
/// engine, so every run samples every core: on a virtual machine a vCPU
/// can run ~1.5x slower for minutes while its host neighbours are busy,
/// and a single-threaded train is as fast as the vCPU it lands on.  A
/// quartile, not the median: the trainer decides by timing, so a
/// disturbed timing loop changes the tables it keeps and the work of every
/// later level, which gives train times a long upper tail (medians of 10
/// Poisson trains in three processes: 0.53, 0.57, 0.72 s; lower quartiles
/// 0.50, 0.52, 0.53 s).
void measure_tune(const Serving& w, const Options& options, int reps,
                  double& tune_s, double& fresh_ms, Tally& tally) {
  const auto threads = static_cast<std::size_t>(worker_count());
  std::vector<std::vector<double>> train_s(threads);
  std::vector<std::vector<double>> solve_ms(threads);
  std::vector<Tally> tallies(threads);
  std::vector<std::exception_ptr> errors(threads);
  const auto trainer = [&](std::size_t t) {
    try {
      for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t salt =
            90 + t * 100 + static_cast<std::uint64_t>(rep);
        double ms = 0.0;
        train_s[t].push_back(
            train_once(w.family(), options, salt, ms, tallies[t]));
        solve_ms[t].push_back(ms);
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(trainer, t);
  trainer(0);
  for (auto& th : pool) th.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<double> all_train;
  std::vector<double> all_solve;
  for (std::size_t t = 0; t < threads; ++t) {
    all_train.insert(all_train.end(), train_s[t].begin(), train_s[t].end());
    all_solve.insert(all_solve.end(), solve_ms[t].begin(), solve_ms[t].end());
    tally.merge(tallies[t]);
  }
  tune_s = percentile(all_train, 25);
  fresh_ms = median(all_solve);
}

void note_window(Report& report, const Serving& w, const char* label,
                 const Window& win) {
  const auto classes = w.classes();
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu requests, %lld rhs in %.2f s, %lld failed", label,
                win.tally.latency_ms.size(),
                static_cast<long long>(win.tally.rhs), win.wall_s,
                static_cast<long long>(win.tally.failed));
  report.notes.push_back(line);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < win.tally.cls.size(); ++i) {
      if (win.tally.cls[i] == static_cast<int>(k)) {
        ms.push_back(win.tally.latency_ms[i]);
      }
    }
    const double worst = k < win.tally.worst_accuracy_ratio.size()
                             ? win.tally.worst_accuracy_ratio[k]
                             : NAN;
    std::snprintf(line, sizeof line,
                  "  %-12s n=%-6zu p10 %.3f  p50 %.3f  p90 %.3f ms  "
                  "worst acc/target %.3g",
                  classes[k].name, ms.size(), percentile(ms, 10),
                  percentile(ms, 50), percentile(ms, 90), worst);
    report.notes.push_back(line);
  }
  std::snprintf(line, sizeof line,
                "  all: p25 %.3f  p40 %.3f  p50 %.3f  p60 %.3f  p80 %.3f  "
                "p90 %.3f  p95 %.3f ms",
                percentile(win.tally.latency_ms, 25),
                percentile(win.tally.latency_ms, 40),
                percentile(win.tally.latency_ms, 50),
                percentile(win.tally.latency_ms, 60),
                percentile(win.tally.latency_ms, 80),
                percentile(win.tally.latency_ms, 90),
                percentile(win.tally.latency_ms, 95));
  report.notes.push_back(line);
  if (!win.tally.first_failure.empty()) {
    report.notes.push_back("  first failure: " + win.tally.first_failure);
  }
}

}  // namespace

void run_workload(const Options& options, Report& report) {
  const std::unique_ptr<Serving> w = make_workload(options.workload);
  report.notes.push_back("engine workers: " + std::to_string(worker_count()) +
                         " (the host's core count)");
  w->prepare(options);

  // Set-up, repeated: the median is setup_s.  The last one serves.  The
  // count is fixed, not timed, because every engine leaves its worker
  // threads' malloc arenas behind and so peak_rss_mb grows with it.
  std::vector<double> setup_s;
  for (int rep = 0; rep < (options.tiny ? 2 : w->setup_reps()); ++rep) {
    w->teardown();
    Span span("bench.setup");
    w->set_setup_span(span.id());
    const double t0 = now_s();
    w->setup(options);
    setup_s.push_back(now_s() - t0);
  }
  w->set_setup_span(0);
  w->prepare_checks();

  if (!options.trace) {
    const std::int64_t evictions = w->service().stats().evictions;
    const Window win = serve(*w, options, options.seconds, false, 1);
    note_window(report, *w, "window", win);
    report.notes.push_back(
        "  session evictions in window: " +
        std::to_string(w->service().stats().evictions - evictions) +
        ", resident session bytes at end: " +
        std::to_string(w->service().stats().session_bytes));
    report.attempted += win.tally.attempted;
    report.failed += win.tally.failed;
    std::vector<double> lat = win.tally.latency_ms;
    if (lat.size() < 100) {
      report.notes.push_back("warning: fewer than 100 requests; p90 has <10 "
                             "samples beyond it");
    }
    report.set("latency_p50_ms", percentile(lat, 50), "ms");
    report.set("latency_p90_ms", percentile(lat, 90), "ms");
    report.set("throughput_rps",
               static_cast<double>(win.tally.rhs) / win.wall_s, "1/s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  // Untraced half, then traced half: their p50 ratio is the cost of
  // tracing itself.
  const double half = options.seconds / 2.0;
  tracer().set_enabled(false);
  const Window plain = serve(*w, options, half, false, 1);
  tracer().set_enabled(true);
  note_window(report, *w, "untraced window", plain);
  ServiceStats before = w->service().stats();
  const auto pool_before = w->engine().scratch().stats();
  const Window traced = serve(*w, options, half, true, 2);
  note_window(report, *w, "traced window", traced);
  const ServiceStats after = w->service().stats();
  const auto pool_after = w->engine().scratch().stats();
  report.attempted += plain.tally.attempted + traced.tally.attempted;
  report.failed += plain.tally.failed + traced.tally.failed;
  const auto requests = static_cast<double>(traced.tally.latency_ms.size());

  report.set("obs.trace_overhead_frac",
             percentile(traced.tally.latency_ms, 50) /
                     percentile(plain.tally.latency_ms, 50) -
                 1.0,
             "frac");
  report.set("engine.bind_ms", median(w->bind_ms), "ms");
  report.set("engine.evictions_per_kreq",
             1e3 * static_cast<double>(after.evictions - before.evictions) /
                 requests,
             "1/kreq");
  report.set("engine.session_mb",
             static_cast<double>(after.session_bytes) / 1e6, "MB");
  report.set("tune.config_load_ms", median(w->load_ms), "ms");
  const auto acquires = pool_after.acquires - pool_before.acquires;
  report.set("grid.scratch_hit_rate",
             acquires > 0 ? static_cast<double>(pool_after.hits -
                                                pool_before.hits) /
                                static_cast<double>(acquires)
                          : 1.0,
             "frac");
  report.set("runtime.steals_per_req",
             static_cast<double>(after.scheduler_steals -
                                 before.scheduler_steals) /
                 requests,
             "count");

  // Plan walk per request, split into each request's own top level
  // ("fine") and every level below it ("coarse").
  const char* phases[] = {"relax", "line_solve", "restrict", "interpolate"};
  const obs::Phase kinds[] = {obs::Phase::kRelax, obs::Phase::kLineSolve,
                              obs::Phase::kRestrict,
                              obs::Phase::kInterpolate};
  double fine[4] = {0, 0, 0, 0};
  double coarse[4] = {0, 0, 0, 0};
  double direct = 0.0;
  for (const auto& [n, profile] : w->profiles) {
    for (const auto& e : profile->entries()) {
      if (e.phase == obs::Phase::kDirect) direct += e.seconds;
      for (int p = 0; p < 4; ++p) {
        if (e.phase != kinds[p]) continue;
        (e.level == level_of_size(n) ? fine : coarse)[p] += e.seconds;
      }
    }
  }
  for (int p = 0; p < 4; ++p) {
    report.set(std::string("plan.fine.") + phases[p] + "_ms",
               1e3 * fine[p] / requests, "ms");
    report.set(std::string("plan.coarse.") + phases[p] + "_ms",
               1e3 * coarse[p] / requests, "ms");
  }
  report.set("plan.direct_ms", 1e3 * direct / requests, "ms");

  w->teardown();
  Tally tune_tally;
  double tune_s = 0.0;
  double fresh_ms = 0.0;
  measure_tune(*w, options, options.tiny ? 1 : 4, tune_s, fresh_ms,
               tune_tally);
  report.set("tune_s", tune_s, "s");
  report.set("tune.fresh_table_solve_ms", fresh_ms, "ms");
  char line[128];
  std::snprintf(line, sizeof line,
                "fresh tables: worst accuracy/target %.3g on held-out input",
                tune_tally.worst_accuracy_ratio.empty()
                    ? NAN
                    : tune_tally.worst_accuracy_ratio[0]);
  report.notes.push_back(line);
}

}  // namespace perfbench
