// The per-layer ledger: fixed probes every traced run makes, each timed
// around public library calls from this file (and recorded as spans).
// Kernel rates are reported against a STREAM-triad roofline measured in
// the same run; bytes moved are *computed* from array sizes (cache reuse
// and write-allocate traffic are not counted).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "engine/solve_service.h"
#include "grid/fingerprint.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/packed_stencil.h"
#include "obs/phase_profile.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"
#include "tune/dynamic.h"

namespace perfbench {

namespace {

/// Median wall seconds of `reps` calls of `fn`, each inside a span.
template <typename Fn>
double time_median(const char* span_name, std::int64_t parent, int reps,
                   Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    Span span(span_name, parent);
    const double t0 = now_s();
    fn();
    s.push_back(now_s() - t0);
  }
  return median(s);
}

Grid2D random_grid(int n, std::uint64_t seed) {
  Rng rng(seed);
  Grid2D g(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  return g;
}

/// STREAM triad a = b + s*c over `threads` threads; returns GB/s at the
/// STREAM byte count (24 bytes per element).
double stream_triad_gbs(std::size_t elements, int threads, int reps,
                        std::int64_t parent) {
  std::vector<double> a(elements, 0.0), b(elements, 1.0), c(elements, 2.0);
  const auto run = [&] {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = elements * static_cast<std::size_t>(t) /
                               static_cast<std::size_t>(threads);
        const std::size_t hi = elements * static_cast<std::size_t>(t + 1) /
                               static_cast<std::size_t>(threads);
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (auto& th : pool) th.join();
  };
  run();  // first touch
  const double s = time_median("grid.stream_triad", parent, reps, run);
  return 24.0 * static_cast<double>(elements) / s / 1e9;
}

}  // namespace

void run_ledger(const Options& options, Report& report) {
  const int threads = worker_count();
  const bool tiny = options.tiny;
  const int big = tiny ? 129 : 1025;  // Poisson kernels (poisson-large)
  const int mid = tiny ? 65 : 513;    // variable-coefficient kernels
  const int reps = tiny ? 3 : 15;
  Span root("bench.ledger");
  const std::int64_t parent = root.id();
  char note[256];

  // ---- grid: roofline ---------------------------------------------------
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  // 4x the LLC would be >= 1.2 GB per array on hosts that report a large
  // shared L3; arrays are capped at 128 MB each to keep the run small.
  const std::size_t array_bytes = tiny ? (8u << 20) : (128u << 20);
  const double triad =
      stream_triad_gbs(array_bytes / sizeof(double), threads, tiny ? 2 : 5,
                       parent);
  report.set("grid.stream_triad_gbs", triad, "GB/s");
  std::snprintf(note, sizeof note,
                "triad: 3 arrays x %zu MB, %d threads; reported LLC %ld MB",
                array_bytes >> 20, threads, llc > 0 ? llc >> 20 : -1L);
  report.notes.push_back(note);

  // ---- grid + solvers: Poisson kernels at n = big ------------------------
  const auto engine = make_engine(threads, true);
  rt::Scheduler& sched = engine->scheduler();
  {
    const double n2 = static_cast<double>(big) * big;
    const int nc = coarse_size(big);
    const double nc2 = static_cast<double>(nc) * nc;
    Grid2D x = random_grid(big, 1);
    const Grid2D b = random_grid(big, 2);
    Grid2D r(big, 0.0);
    Grid2D c(nc, 0.0);
    const auto rate = [&](const char* name, double bytes, double seconds) {
      const double gbs = bytes / seconds / 1e9;
      report.set(std::string("grid.") + name + "_gbs", gbs, "GB/s");
      report.set(std::string("grid.") + name + "_roofline_frac", gbs / triad,
                 "frac");
    };
    rate("residual", 3 * 8 * n2,
         time_median("grid.residual", parent, reps,
                     [&] { grid::residual(x, b, r, sched); }));
    rate("restrict", 8 * (n2 + nc2),
         time_median("grid.restrict_full_weighting", parent, reps,
                     [&] { grid::restrict_full_weighting(r, c, sched); }));
    rate("interpolate", 8 * (nc2 + 2 * n2),
         time_median("grid.interpolate_add", parent, reps,
                     [&] { grid::interpolate_add(c, x, sched); }));

    // Strong scaling of one fine-level SOR sweep against 1 worker.
    std::map<int, double> sweep;
    for (const int w : {1, 2, 4}) {
      const auto e = make_engine(w, false);
      sweep[w] = time_median("solvers.sor_sweep", parent, reps, [&] {
        solvers::sor_sweep(x, b, solvers::kRecurseOmega, e->scheduler());
      });
    }
    report.set("solvers.sor_sweep_ms",
               1e3 * time_median("solvers.sor_sweep", parent, reps, [&] {
                 solvers::sor_sweep(x, b, solvers::kRecurseOmega, sched);
               }),
               "ms");
    report.set("runtime.speedup_w2", sweep[1] / sweep[2], "x");
    report.set("runtime.speedup_w4", sweep[1] / sweep[4], "x");
  }

  // ---- runtime: fork/join round trip from an external thread ------------
  {
    const auto idle = make_engine(threads, false);
    std::atomic<std::int64_t> sink{0};
    const int calls = tiny ? 200 : 2000;
    std::vector<double> us;
    Span span("runtime.parallel_for", parent);
    for (int i = 0; i < calls; ++i) {
      const double t0 = now_s();
      idle->scheduler().parallel_for(
          0, threads, 1, [&](std::int64_t lo, std::int64_t hi) {
            sink.fetch_add(hi - lo, std::memory_order_relaxed);
          });
      us.push_back((now_s() - t0) * 1e6);
    }
    report.set("runtime.fork_join_us", median(us), "us");
  }

  // ---- grid + solvers: variable-coefficient kernels at n = mid ----------
  {
    const grid::StencilOp t45 =
        make_operator(mid, OperatorFamily::kAnisoTheta45);
    const grid::StencilOp jump =
        make_operator(mid, OperatorFamily::kJumpCoefficient);
    const std::size_t packed_bytes = t45.packed().bytes();
    jump.packed();
    const int width = engine->relax().kernels.simd_width;
    const double grids = 3 * 8 * static_cast<double>(mid) * mid;
    Grid2D x = random_grid(mid, 3);
    const Grid2D b = random_grid(mid, 4);
    Grid2D r(mid, 0.0);
    report.set("grid.packed_residual_gbs",
               (static_cast<double>(packed_bytes) + grids) / 1e9 /
                   time_median("grid.packed_residual", parent, reps, [&] {
                     grid::packed_residual(t45, x, b, r, sched, width);
                   }),
               "GB/s");
    report.set("grid.packed_sor_gbs",
               (static_cast<double>(packed_bytes) + grids) / 1e9 /
                   time_median("grid.packed_sor_sweep", parent, reps, [&] {
                     grid::packed_sor_sweep(t45, x, b, solvers::kRecurseOmega,
                                            sched, width);
                   }),
               "GB/s");
    report.set("grid.rap_ladder_ms",
               1e3 * time_median("grid.StencilHierarchy(rap)", parent,
                                 tiny ? 1 : 3,
                                 [&] {
                                   grid::StencilHierarchy h(
                                       t45, grid::Coarsening::kRap);
                                 }),
               "ms");
    report.set("grid.fingerprint_us",
               1e6 * time_median("grid.fingerprint", parent, reps,
                                 [&] { grid::fingerprint(t45); }),
               "us");
    report.set("solvers.line_sweep_ms",
               1e3 * time_median("solvers.line_relax_sweep", parent, reps,
                                 [&] {
                                   solvers::line_relax_sweep(
                                       jump, x, b,
                                       solvers::RelaxKind::kLineZebraAlt,
                                       sched, engine->scratch(),
                                       engine->relax().kernels);
                                 }),
               "ms");
  }

  // ---- solvers: direct solve at the base-case size the tables pick ------
  const int small_n = tiny ? 17 : 129;
  const tune::TunedConfig poisson =
      load_table(options, OperatorFamily::kPoisson, level_of_size(big));
  {
    SolveSession session(*engine, poisson, small_n);
    const auto inst = make_pool(grid::StencilOp::poisson(small_n), 1,
                                options.seed, 70, sched)[0];
    Grid2D x(small_n, 0.0);
    x.copy_from(inst.problem.x0);
    const auto profile = std::make_shared<obs::PhaseProfile>();
    session.solve_v(x, inst.problem.b, session.accuracy_index(1e5), profile);
    int base_level = 1;
    for (const auto& e : profile->entries()) {
      if (e.phase == obs::Phase::kDirect) {
        base_level = std::max(base_level, e.level);
      }
    }
    const int base_n = size_of_level(base_level);
    const Grid2D bb = random_grid(base_n, 5);
    Grid2D xb(base_n, 0.0);
    report.set("solvers.direct_ms",
               1e3 * time_median("solvers.DirectSolver::solve", parent,
                                 tiny ? 5 : 50,
                                 [&] { engine->direct().solve(bb, xb); }),
               "ms");
    std::snprintf(note, sizeof note,
                  "direct probe: base case n=%d picked by the Poisson table "
                  "for a 1e5 V solve at n=%d",
                  base_n, small_n);
    report.notes.push_back(note);
  }

  // ---- engine: service overhead over the bare session -------------------
  {
    const int n = tiny ? 17 : 33;
    SolveService service(*engine, poisson);
    const SessionRef session = service.session(n);
    const auto inst = make_pool(grid::StencilOp::poisson(n), 1, options.seed,
                                71, sched)[0];
    SolveRequest request;
    request.target_accuracy = 1e5;
    const int index = session->accuracy_index(1e5);
    std::vector<double> via_service;
    std::vector<double> via_session;
    Grid2D x(n, 0.0);
    for (int i = 0; i < (tiny ? 50 : 500); ++i) {
      x.copy_from(inst.problem.x0);
      {
        Span span("engine.SolveService::solve", parent);
        const double t0 = now_s();
        service.solve(x, inst.problem.b, request);
        via_service.push_back(now_s() - t0);
      }
      x.copy_from(inst.problem.x0);
      {
        Span span("engine.SolveSession::solve_v", parent);
        const double t0 = now_s();
        session->solve_v(x, inst.problem.b, index);
        via_session.push_back(now_s() - t0);
      }
    }
    report.set("engine.service_overhead_us",
               1e6 * (median(via_service) - median(via_session)), "us");
  }

  // ---- engine + tune: batching, routing, escalation at n = mid ----------
  {
    const int level = level_of_size(mid);
    const auto jump_config = std::make_shared<const tune::TunedConfig>(
        load_table(options, OperatorFamily::kJumpCoefficient, level));
    const auto t45_config = std::make_shared<const tune::TunedConfig>(
        load_table(options, OperatorFamily::kAnisoTheta45, level));
    SolveService service(*engine, *jump_config);
    service.install_family(*t45_config);
    const grid::StencilOp ops[] = {
        make_operator(mid, OperatorFamily::kJumpCoefficient),
        make_operator(mid, OperatorFamily::kAnisoTheta45),
        make_operator(mid, OperatorFamily::kSmoothVariable)};
    std::vector<tune::TrainingInstance> insts;
    for (int i = 0; i < 3; ++i) {
      insts.push_back(make_pool(ops[i], 1, options.seed, 72 + i, sched)[0]);
    }
    const auto& jinst = insts[0];
    SolveRequest request;
    request.target_accuracy = 1e5;

    // K=4 solve_batch against 4 solo solves of the same iterates.
    std::vector<Grid2D> xs(4, Grid2D(mid, 0.0));
    std::vector<Grid2D*> ptrs;
    for (Grid2D& x : xs) ptrs.push_back(&x);
    const auto reset = [&] {
      for (Grid2D& x : xs) x.copy_from(jinst.problem.x0);
    };
    reset();
    service.solve_batch(ptrs, jinst.problem.b, request);  // warm
    std::vector<double> solo_s;
    std::vector<double> batch_s;
    for (int trial = 0; trial < (tiny ? 2 : 5); ++trial) {
      reset();
      {
        Span span("engine.solo_x4", parent);
        const double t0 = now_s();
        for (Grid2D& x : xs) service.solve(x, jinst.problem.b, request);
        solo_s.push_back(now_s() - t0);
      }
      reset();
      {
        Span span("engine.SolveService::solve_batch", parent);
        const double t0 = now_s();
        service.solve_batch(ptrs, jinst.problem.b, request);
        batch_s.push_back(now_s() - t0);
      }
    }
    report.set("engine.batch_x", median(solo_s) / median(batch_s), "x");

    // Routed solves of jump, theta=45 and smooth operators: escalation and
    // variant counts from their DynamicResult.
    Grid2D x(mid, 0.0);
    std::int64_t routed = 0;
    std::int64_t escalations = 0;
    std::int64_t variants = 0;
    for (int trial = 0; trial < (tiny ? 1 : 3); ++trial) {
      for (int i = 0; i < 3; ++i) {
        x.copy_from(insts[i].problem.x0);
        tune::DynamicResult detail;
        Span span("engine.SolveService::solve_op", parent);
        service.solve_op(ops[i], x, insts[i].problem.b, request, &detail);
        ++routed;
        escalations += detail.escalations + detail.family_switches;
        variants += detail.iterations;
      }
    }
    report.set("tune.escalations_per_req",
               static_cast<double>(escalations) / static_cast<double>(routed),
               "count");
    report.set("tune.variant_calls_per_req",
               static_cast<double>(variants) / static_cast<double>(routed),
               "count");

    // Route overhead: solve_op against a DynamicSolver bound directly, with
    // the nearest-first family ladder the router builds, to the same jump
    // operator.  Measured where a solve is short (n=65), so the per-call
    // cost of routing is not lost in solve-time noise; the arms run back
    // to back, alternating which goes first.
    const int rn = tiny ? 33 : 65;
    const grid::StencilOp rop =
        make_operator(rn, OperatorFamily::kJumpCoefficient);
    const auto rinst = make_pool(rop, 1, options.seed, 75, sched)[0];
    std::vector<tune::FamilyConfig> ladder;
    for (const grid::FamilyMatch& match :
         grid::rank_families(grid::fingerprint(rop))) {
      if (match.family == OperatorFamily::kJumpCoefficient) {
        ladder.push_back({to_string(match.family), jump_config});
      } else if (match.family == OperatorFamily::kAnisoTheta45) {
        ladder.push_back({to_string(match.family), t45_config});
      }
    }
    const tune::DynamicSolver bound(rop, ladder, sched, engine->direct(),
                                    engine->scratch(), engine->relax());
    Grid2D rx(rn, 0.0);
    const auto via_route = [&] {
      rx.copy_from(rinst.problem.x0);
      Span span("engine.SolveService::solve_op", parent);
      const double t0 = now_s();
      service.solve_op(rop, rx, rinst.problem.b, request);
      return now_s() - t0;
    };
    const auto via_bound = [&] {
      rx.copy_from(rinst.problem.x0);
      Span span("tune.DynamicSolver::solve", parent);
      const double t0 = now_s();
      bound.solve(rx, rinst.problem.b, 1e5);
      return now_s() - t0;
    };
    via_route();  // binds the routed operator
    std::vector<double> route_s;
    std::vector<double> bound_s;
    const int pairs = tiny ? 20 : 400;
    for (int i = 0; i < pairs; ++i) {
      if (i % 2 == 0) {
        route_s.push_back(via_route());
        bound_s.push_back(via_bound());
      } else {
        bound_s.push_back(via_bound());
        route_s.push_back(via_route());
      }
    }
    report.set("engine.route_overhead_us",
               1e6 * (median(route_s) - median(bound_s)), "us");
    std::snprintf(note, sizeof note,
                  "route probe (jump n=%d): solve_op %.1f us, bound "
                  "DynamicSolver %.1f us (medians of %d)",
                  rn, 1e6 * median(route_s), 1e6 * median(bound_s), pairs);
    report.notes.push_back(note);
  }
}

}  // namespace perfbench
