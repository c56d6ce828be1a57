// google-benchmark microbenchmarks for the computational kernels
// underlying every experiment: relaxation sweeps, residuals, transfer
// operators, norms, banded Cholesky, the spectral oracle, whole V-cycles,
// and runtime primitives.  These quantify the per-operation costs the
// autotuner trades off.
//
// Every benchmark that runs on the engine's scheduler reports wall time
// (UseRealTime): google-benchmark's cpu_time counts only the calling
// thread, not the pool's workers, so it understates a threaded kernel.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "fft/fast_poisson.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"
#include "linalg/poisson_assembly.h"
#include "obs/phase_profile.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "solvers/relax.h"
#include "support/rng.h"

namespace {

using namespace pbmg;

/// One engine shared by every microbenchmark (default machine profile).
Engine& bench_engine() {
  static Engine instance;
  return instance;
}

PoissonProblem problem_for(int n) {
  Rng rng(8888 + static_cast<std::uint64_t>(n));
  return make_problem(n, InputDistribution::kUnbiased, rng);
}

void BM_SorSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  const double omega = solvers::omega_opt(n);
  for (auto _ : state) {
    solvers::sor_sweep(x, problem.b, omega, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_SorSweep)->Arg(65)->Arg(257)->Arg(1025)->UseRealTime();

void BM_JacobiSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D scratch(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::jacobi_sweep(x, problem.b, solvers::kJacobiOmega, scratch, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_JacobiSweep)->Arg(257)->Arg(1025)->UseRealTime();

void BM_Residual(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D r(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::residual(x, problem.b, r, sched);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_Residual)->Arg(257)->Arg(1025)->UseRealTime();

void BM_Restrict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D coarse(coarse_size(n), 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::restrict_full_weighting(problem.b, coarse, sched);
  }
}
BENCHMARK(BM_Restrict)->Arg(257)->Arg(1025)->UseRealTime();

void BM_Interpolate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid2D coarse(coarse_size(n), 1.0);
  Grid2D fine(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::interpolate_add(coarse, fine, sched);
  }
}
BENCHMARK(BM_Interpolate)->Arg(257)->Arg(1025)->UseRealTime();

// The fused residual restriction that replaced BM_Residual + BM_Restrict
// in the multigrid cycles: their sum over this time is the fusion's gain.
void BM_RestrictResidual(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  const grid::StencilOp op = grid::StencilOp::poisson(n);
  Grid2D coarse(coarse_size(n), 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::restrict_residual(op, problem.x0, problem.b, coarse, sched);
    benchmark::DoNotOptimize(coarse.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_RestrictResidual)->Arg(257)->Arg(1025)->UseRealTime();

// The two halves of a Poisson point-SOR RECURSE body, each one fused pass,
// beside the separate passes with the same outputs: the head against
// sor_sweep then the restriction that zeroes the coarse correction, the
// tail against interpolate_add then sor_sweep.
struct PoissonBody {
  explicit PoissonBody(int n)
      : problem(problem_for(n)),
        op(grid::StencilOp::poisson(n)),
        x(problem.x0),
        coarse(coarse_size(n), 0.0),
        correction(coarse_size(n), 0.0) {}
  // The spans below point at this object's own grids.
  PoissonBody(const PoissonBody&) = delete;
  PoissonBody& operator=(const PoissonBody&) = delete;

  PoissonProblem problem;
  grid::StencilOp op;
  Grid2D x;
  Grid2D coarse;
  Grid2D correction;
  Grid2D* const xs[1] = {&x};
  const Grid2D* const xs_read[1] = {&x};
  const Grid2D* const bs[1] = {&problem.b};
  Grid2D* const rcs[1] = {&coarse};
  Grid2D* const es[1] = {&correction};
  const Grid2D* const es_read[1] = {&correction};
};

void BM_PoissonHead(benchmark::State& state) {
  PoissonBody body(static_cast<int>(state.range(0)));
  Engine& engine = bench_engine();
  for (auto _ : state) {
    solvers::recurse_head(body.op, body.xs, body.bs, solvers::RelaxKind::kSor,
                          solvers::kRecurseOmega, body.rcs, body.es,
                          engine.scheduler(), engine.scratch(), {}, nullptr);
    benchmark::DoNotOptimize(body.coarse.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoissonHead)->Arg(257)->Arg(513)->Arg(1025)->UseRealTime();

void BM_PoissonHeadUnfused(benchmark::State& state) {
  PoissonBody body(static_cast<int>(state.range(0)));
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::sor_sweep(body.x, body.problem.b, solvers::kRecurseOmega, sched);
    grid::restrict_residual_multi(body.op, body.xs_read, body.bs, body.rcs,
                                  sched, {}, body.es);
    benchmark::DoNotOptimize(body.coarse.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoissonHeadUnfused)
    ->Arg(257)
    ->Arg(513)
    ->Arg(1025)
    ->UseRealTime();

void BM_PoissonTail(benchmark::State& state) {
  PoissonBody body(static_cast<int>(state.range(0)));
  Engine& engine = bench_engine();
  for (auto _ : state) {
    solvers::recurse_tail(body.op, body.es_read, body.xs, body.bs,
                          solvers::RelaxKind::kSor, solvers::kRecurseOmega,
                          engine.scheduler(), engine.scratch(), {}, nullptr);
    benchmark::DoNotOptimize(body.x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoissonTail)->Arg(257)->Arg(513)->Arg(1025)->UseRealTime();

void BM_PoissonTailUnfused(benchmark::State& state) {
  PoissonBody body(static_cast<int>(state.range(0)));
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::interpolate_add(body.correction, body.x, sched);
    solvers::sor_sweep(body.x, body.problem.b, solvers::kRecurseOmega, sched);
    benchmark::DoNotOptimize(body.x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoissonTailUnfused)
    ->Arg(257)
    ->Arg(513)
    ->Arg(1025)
    ->UseRealTime();

void BM_Norm2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  auto& sched = bench_engine().scheduler();
  double sink = 0.0;
  for (auto _ : state) {
    sink += grid::norm2_interior(problem.b, sched);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Norm2)->Arg(257)->Arg(1025)->UseRealTime();

void BM_BandCholeskyFactor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilOp op = grid::StencilOp::poisson(n);
  for (auto _ : state) {
    linalg::BandMatrix a = linalg::assemble_stencil_band(op);
    linalg::band_cholesky_factor(a);
    benchmark::DoNotOptimize(a.band(0, 0));
  }
}
BENCHMARK(BM_BandCholeskyFactor)->Arg(33)->Arg(65)->Arg(129);

// The whole Direct method as the cycles call it (DPBSV semantics):
// assembly, factorization and the triangular solves, on every call.
void BM_DirectSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  solvers::DirectSolver direct;
  Grid2D x = problem.x0;
  for (auto _ : state) {
    direct.solve(problem.b, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DirectSolve)->Arg(9)->Arg(33)->Arg(65);

void BM_FastPoissonOracle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  fft::FastPoissonSolver solver(n);
  Grid2D out(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solver.solve(problem.b, problem.x0, out, sched);
  }
}
BENCHMARK(BM_FastPoissonOracle)->Arg(257)->Arg(1025)->UseRealTime();

void BM_VCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, solvers::VCycleOptions{}, sched, direct,
                    pool);
  }
}
BENCHMARK(BM_VCycle)->Arg(257)->Arg(1025)->UseRealTime();

// Profiling-overhead pair: identical V-cycles with the obs::PhaseProfile
// hook disabled (null sink — the production default) versus enabled.  CI
// asserts the Off/On ratio stays within noise, i.e. that attaching the
// scoped-timer hooks to the solver costs nothing when no profile is
// requested.
void BM_VCycleProfilingOff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  solvers::VCycleOptions options;  // options.profile == nullptr
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, options, sched, direct, pool);
  }
}
BENCHMARK(BM_VCycleProfilingOff)->Arg(257)->UseRealTime();

void BM_VCycleProfilingOn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& direct = bench_engine().direct();
  auto& pool = bench_engine().scratch();
  const grid::StencilHierarchy ops(grid::StencilOp::poisson(n));
  obs::PhaseProfile profile;
  solvers::VCycleOptions options;
  options.profile = &profile;
  for (auto _ : state) {
    solvers::vcycle(ops, x, problem.b, options, sched, direct, pool);
  }
  benchmark::DoNotOptimize(profile.total_seconds());
}
BENCHMARK(BM_VCycleProfilingOn)->Arg(257)->UseRealTime();

// ----------------------------------------------- packed-vs-legacy pairs --
// Each pair runs the identical sweep on the identical operator, differing
// only in KernelPolicy.  Arguments are (stencil points, n): 5 is the
// jump-coefficient operator, 9 the θ=30° rotated-anisotropy
// discretisation (the fig20 family).  Both layouts run the same pk::
// rows over the operator's same coefficient grids, the legacy layout at
// one lane and the packed one at the widest supported width; results are
// bitwise identical by contract (tests/packed_kernels_test.cpp), so
// legacy / packed is the SIMD lanes' speedup over one lane.

grid::StencilOp pair_op(int points, int n) {
  return make_operator(n, points == 9 ? OperatorFamily::kAnisoTheta30
                                      : OperatorFamily::kJumpCoefficient);
}

grid::KernelPolicy packed_policy() {
  grid::KernelPolicy policy;
  policy.layout = grid::StencilLayout::kPacked;
  policy.simd_width = grid::clamp_simd_width(4);
  return policy;
}

void pair_args(benchmark::internal::Benchmark* b) {
  for (const int points : {5, 9}) {
    for (const int n : {129, 513, 1025}) b->Args({points, n});
  }
  b->UseRealTime();
}

void stencil_residual_bench(benchmark::State& state,
                            const grid::KernelPolicy& policy) {
  const int n = static_cast<int>(state.range(1));
  const grid::StencilOp op = pair_op(static_cast<int>(state.range(0)), n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D r(n, 0.0);
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::residual_op(op, x, problem.b, r, sched, policy);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}

void BM_StencilResidualLegacy(benchmark::State& state) {
  stencil_residual_bench(state, grid::KernelPolicy{});
}
BENCHMARK(BM_StencilResidualLegacy)->Apply(pair_args);

void BM_StencilResidualPacked(benchmark::State& state) {
  stencil_residual_bench(state, packed_policy());
}
BENCHMARK(BM_StencilResidualPacked)->Apply(pair_args);

void stencil_sor_bench(benchmark::State& state,
                       const grid::KernelPolicy& policy) {
  const int n = static_cast<int>(state.range(1));
  const grid::StencilOp op = pair_op(static_cast<int>(state.range(0)), n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::sor_sweep(op, x, problem.b, solvers::kRecurseOmega, sched,
                       policy);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}

void BM_StencilSorLegacy(benchmark::State& state) {
  stencil_sor_bench(state, grid::KernelPolicy{});
}
BENCHMARK(BM_StencilSorLegacy)->Apply(pair_args);

void BM_StencilSorPacked(benchmark::State& state) {
  stencil_sor_bench(state, packed_policy());
}
BENCHMARK(BM_StencilSorPacked)->Apply(pair_args);

void stencil_zebra_bench(benchmark::State& state,
                         const grid::KernelPolicy& policy) {
  const int n = static_cast<int>(state.range(1));
  const grid::StencilOp op = pair_op(static_cast<int>(state.range(0)), n);
  auto problem = problem_for(n);
  Grid2D x = problem.x0;
  auto& sched = bench_engine().scheduler();
  auto& pool = bench_engine().scratch();
  for (auto _ : state) {
    solvers::line_relax_sweep(op, x, problem.b,
                              solvers::RelaxKind::kLineZebraAlt, sched, pool,
                              policy);
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}

void BM_StencilZebraLegacy(benchmark::State& state) {
  stencil_zebra_bench(state, grid::KernelPolicy{});
}
BENCHMARK(BM_StencilZebraLegacy)->Apply(pair_args);

void BM_StencilZebraPacked(benchmark::State& state) {
  stencil_zebra_bench(state, packed_policy());
}
BENCHMARK(BM_StencilZebraPacked)->Apply(pair_args);

// The packed line passes pick their body by K (grid/packed_kernels.h):
// one-pass for one iterate, factor-once for a batch.  Arguments are
// (stencil points, n, K): 5 is the jump-coefficient operator at n, the
// family varcoef batches serve, 9 its Galerkin RAP level at n (built as
// BM_PackedHead builds it), and 0 the Poisson operator, whose bands read
// no grid and which runs at the widest width under any policy, so every
// band kind runs.  K = 4 is the batch size varcoef sends and K = 1 the
// solo body on the same operator.  Real time covers one sweep of all K
// iterates, so time per RHS is real time / K.
void BM_StencilZebraPackedBatch(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto k_count = static_cast<std::size_t>(state.range(2));
  const grid::StencilOp op =
      points == 0 ? grid::StencilOp::poisson(n)
      : points == 9
          ? grid::StencilHierarchy(
                make_operator(2 * n - 1, OperatorFamily::kJumpCoefficient),
                grid::Coarsening::kRap)
                .at(level_of_size(n))
          : make_operator(n, OperatorFamily::kJumpCoefficient);
  const auto problem = problem_for(n);
  std::vector<Grid2D> xs(k_count, problem.x0);
  std::vector<Grid2D*> slots;
  for (Grid2D& x : xs) slots.push_back(&x);
  const std::vector<const Grid2D*> bs(k_count, &problem.b);
  auto& sched = bench_engine().scheduler();
  auto& pool = bench_engine().scratch();
  for (auto _ : state) {
    solvers::line_relax_sweep_multi(op, slots, bs,
                                    solvers::RelaxKind::kLineZebraAlt, sched,
                                    pool, packed_policy());
    benchmark::DoNotOptimize(xs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k_count) * (n - 2) *
                          (n - 2));
}
BENCHMARK(BM_StencilZebraPackedBatch)
    ->Args({0, 513, 1})
    ->Args({0, 513, 4})
    ->Args({5, 513, 1})
    ->Args({5, 513, 4})
    ->Args({9, 513, 1})
    ->Args({9, 513, 4})
    ->UseRealTime();

// ---------------------------------------------- packed body halves --
// The two halves of a packed point-SOR RECURSE body, each one fused
// wavefront, beside the separate passes with the same outputs: the head
// against sor_sweep_multi then the restriction that zeroes the coarse
// correction, the tail against interpolate_add then sor_sweep_multi.
// Arguments are (stencil points, n): 5 is the jump operator's averaged
// level at n (the 5-point level varcoef-serve's L8 bodies run), 9 its
// Galerkin RAP level at n.

struct PackedBody {
  PackedBody(int points, int n)
      : ladder(make_operator(2 * n - 1, OperatorFamily::kJumpCoefficient),
               points == 9 ? grid::Coarsening::kRap
                           : grid::Coarsening::kAverage),
        op(ladder.at(level_of_size(n))),
        problem(problem_for(n)),
        x(problem.x0),
        coarse(coarse_size(n), 0.0),
        correction(coarse_size(n), 0.0) {}
  // The spans below point at this object's own grids.
  PackedBody(const PackedBody&) = delete;
  PackedBody& operator=(const PackedBody&) = delete;

  grid::StencilHierarchy ladder;
  const grid::StencilOp& op;
  PoissonProblem problem;
  Grid2D x;
  Grid2D coarse;
  Grid2D correction;
  Grid2D* const xs[1] = {&x};
  const Grid2D* const xs_read[1] = {&x};
  const Grid2D* const bs[1] = {&problem.b};
  Grid2D* const rcs[1] = {&coarse};
  Grid2D* const es[1] = {&correction};
  const Grid2D* const es_read[1] = {&correction};
};

void BM_PackedHead(benchmark::State& state) {
  PackedBody body(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  Engine& engine = bench_engine();
  for (auto _ : state) {
    solvers::recurse_head(body.op, body.xs, body.bs, solvers::RelaxKind::kSor,
                          solvers::kRecurseOmega, body.rcs, body.es,
                          engine.scheduler(), engine.scratch(),
                          packed_policy(), nullptr);
    benchmark::DoNotOptimize(body.coarse.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PackedHead)
    ->Args({5, 257})
    ->Args({9, 257})
    ->Args({9, 513})
    ->UseRealTime();

void BM_PackedHeadUnfused(benchmark::State& state) {
  PackedBody body(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    solvers::sor_sweep_multi(body.op, body.xs, body.bs,
                             solvers::kRecurseOmega, sched, packed_policy());
    grid::restrict_residual_multi(body.op, body.xs_read, body.bs, body.rcs,
                                  sched, packed_policy(), body.es);
    benchmark::DoNotOptimize(body.coarse.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PackedHeadUnfused)
    ->Args({5, 257})
    ->Args({9, 257})
    ->Args({9, 513})
    ->UseRealTime();

void BM_PackedTail(benchmark::State& state) {
  PackedBody body(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  Engine& engine = bench_engine();
  for (auto _ : state) {
    solvers::recurse_tail(body.op, body.es_read, body.xs, body.bs,
                          solvers::RelaxKind::kSor, solvers::kRecurseOmega,
                          engine.scheduler(), engine.scratch(),
                          packed_policy(), nullptr);
    benchmark::DoNotOptimize(body.x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PackedTail)
    ->Args({5, 257})
    ->Args({9, 257})
    ->Args({9, 513})
    ->UseRealTime();

void BM_PackedTailUnfused(benchmark::State& state) {
  PackedBody body(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  auto& sched = bench_engine().scheduler();
  for (auto _ : state) {
    grid::interpolate_add(body.correction, body.x, sched);
    solvers::sor_sweep_multi(body.op, body.xs, body.bs,
                             solvers::kRecurseOmega, sched, packed_policy());
    benchmark::DoNotOptimize(body.x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PackedTailUnfused)
    ->Args({5, 257})
    ->Args({9, 257})
    ->Args({9, 513})
    ->UseRealTime();

// ------------------------------------------------ parallel cutoff --
// The coarse passes a jump RAP walk runs, each inside a solve that has
// already forked a region (rt::SolveScope), as a walk's are once its fine
// passes have forked: on the bench engine the scheduler prices them by
// their work (the weights in grid/grid_ops.h) and forks them from n = 65
// or 129, while a one-thread engine runs them inline.  The ratio
// serial / forked is the cutoff's payoff at each size.  The operator is
// the 9-point RAP level of the jump operator one level up.

enum class CutoffPass { kXLine, kSor, kRestrict };

Engine& serial_engine() {
  static Engine instance(rt::serial_profile());
  return instance;
}

void cutoff_pass_bench(benchmark::State& state, CutoffPass pass,
                       Engine& engine) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilHierarchy ladder(
      make_operator(2 * n - 1, OperatorFamily::kJumpCoefficient),
      grid::Coarsening::kRap);
  const grid::StencilOp& op = ladder.at(level_of_size(n));
  const auto problem = problem_for(n);
  Grid2D x = problem.x0;
  Grid2D* const xs[] = {&x};
  const Grid2D* const bs[] = {&problem.b};
  const Grid2D* const xs_read[] = {&x};
  Grid2D coarse(coarse_size(n), 0.0);
  Grid2D* const cs[] = {&coarse};
  auto& sched = engine.scheduler();
  const rt::SolveScope solve;
  sched.parallel_for(0, 2, 1, [](std::int64_t, std::int64_t) {});
  for (auto _ : state) {
    switch (pass) {
      case CutoffPass::kXLine:
        solvers::line_relax_sweep_multi(op, xs, bs, solvers::RelaxKind::kLineX,
                                        sched, engine.scratch(),
                                        packed_policy());
        break;
      case CutoffPass::kSor:
        solvers::sor_sweep_multi(op, xs, bs, solvers::kRecurseOmega, sched,
                                 packed_policy());
        break;
      case CutoffPass::kRestrict:
        grid::restrict_residual_multi(op, xs_read, bs, cs, sched,
                                      packed_policy());
        break;
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(coarse.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}

void BM_CutoffXLine(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kXLine, bench_engine());
}
BENCHMARK(BM_CutoffXLine)->Arg(65)->Arg(129)->Arg(257)->UseRealTime();

void BM_CutoffXLineSerial(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kXLine, serial_engine());
}
BENCHMARK(BM_CutoffXLineSerial)->Arg(65)->Arg(129)->Arg(257)->UseRealTime();

void BM_CutoffSor(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kSor, bench_engine());
}
BENCHMARK(BM_CutoffSor)->Arg(65)->Arg(129)->Arg(257)->UseRealTime();

void BM_CutoffSorSerial(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kSor, serial_engine());
}
BENCHMARK(BM_CutoffSorSerial)->Arg(65)->Arg(129)->Arg(257)->UseRealTime();

void BM_CutoffRestrict(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kRestrict, bench_engine());
}
BENCHMARK(BM_CutoffRestrict)->Arg(65)->Arg(129)->Arg(257)->UseRealTime();

void BM_CutoffRestrictSerial(benchmark::State& state) {
  cutoff_pass_bench(state, CutoffPass::kRestrict, serial_engine());
}
BENCHMARK(BM_CutoffRestrictSerial)
    ->Arg(65)
    ->Arg(129)
    ->Arg(257)
    ->UseRealTime();

// --------------------------------------------------------- RAP ladders --
// The Galerkin RAP ladder a θ=45° binding builds, coarsened on the bench
// engine's scheduler and serially (the scheduler-less constructor).  Both
// produce the same ladder bit for bit (tests/rap_test.cpp), so the ratio
// is the parallel build's speedup.

void rap_ladder_bench(benchmark::State& state, rt::Scheduler* sched) {
  const int n = static_cast<int>(state.range(0));
  const grid::StencilOp fine = make_operator(n, OperatorFamily::kAnisoTheta45);
  for (auto _ : state) {
    const grid::StencilHierarchy ladder =
        sched != nullptr
            ? grid::StencilHierarchy(fine, grid::Coarsening::kRap, *sched)
            : grid::StencilHierarchy(fine, grid::Coarsening::kRap);
    benchmark::DoNotOptimize(ladder.at(1).n());
  }
}

void BM_RapLadderSerial(benchmark::State& state) {
  rap_ladder_bench(state, nullptr);
}
BENCHMARK(BM_RapLadderSerial)->Arg(513)->UseRealTime();

void BM_RapLadder(benchmark::State& state) {
  rap_ladder_bench(state, &bench_engine().scheduler());
}
BENCHMARK(BM_RapLadder)->Arg(513)->UseRealTime();

void BM_ParallelForOverhead(benchmark::State& state) {
  auto& sched = bench_engine().scheduler();
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    sched.parallel_for(0, 1024, 16, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForOverhead)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
