// Tests for the Engine/SolveSession ownership layer: engines own their
// scheduler/scratch/direct resources, coexist with different machine
// profiles in one process, validate their inputs, amortize session setup
// through the scratch pool, and produce bit-identical solutions
// regardless of the worker count they run with.

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/level.h"
#include "solvers/multigrid.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

rt::MachineProfile test_profile(int threads) {
  rt::MachineProfile p;
  p.name = "engine-test";
  p.threads = threads;
  p.grain_rows = 4;
  return p;
}

Engine& engine() {
  static Engine instance(test_profile(4));
  return instance;
}

/// Config trained once on the shared engine (max_level 5, V + FMG).
const tune::TunedConfig& trained() {
  static const tune::TunedConfig config = [] {
    tune::TrainerOptions options;
    options.max_level = 5;
    options.seed = 4242;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Engine, OwnsSchedulerBuiltFromProfile) {
  Engine two(test_profile(2));
  EXPECT_EQ(two.scheduler().thread_count(), 2);
  EXPECT_EQ(two.profile().name, "engine-test");
  EXPECT_FALSE(two.cache_dir().empty());
}

TEST(Engine, EnginesWithDifferentProfilesCoexist) {
  Engine serial(rt::serial_profile());
  Engine wide(test_profile(4));
  EXPECT_EQ(serial.scheduler().thread_count(), 1);
  EXPECT_EQ(wide.scheduler().thread_count(), 4);
  // Pools are independent: leases from one never appear in the other.
  { auto lease = serial.scratch().acquire(17); }
  EXPECT_EQ(serial.scratch().pooled(), 1u);
  EXPECT_EQ(wide.scratch().pooled(), 0u);
}

TEST(Engine, ValidatesProfileAndRelaxTunables) {
  rt::MachineProfile bad = test_profile(0);
  EXPECT_THROW(Engine{bad}, InvalidArgument);
  solvers::RelaxTunables divergent;
  divergent.recurse_omega = 2.5;  // outside SOR's (0, 2) stability interval
  EXPECT_THROW(Engine(test_profile(1), divergent), InvalidArgument);
}

TEST(Engine, CarriesSearchedRelaxTunables) {
  solvers::RelaxTunables searched;
  searched.recurse_omega = 1.3;
  searched.omega_scale = 0.9;
  Engine tuned(test_profile(1), searched);
  EXPECT_DOUBLE_EQ(tuned.relax().recurse_omega, 1.3);
  EXPECT_DOUBLE_EQ(tuned.relax().omega_scale, 0.9);
}

TEST(SolveSession, PreallocatesTheLevelHierarchy) {
  Engine local(test_profile(2));
  SolveSession session(local, trained(), size_of_level(5));
  EXPECT_GT(local.scratch().pooled(), 0u);
  const auto warm = local.scratch().stats();
  // The first solves draw from the warmed free-list instead of malloc:
  // reference V-cycles on the session's ladder, then the tuned walks.
  Rng rng(11);
  auto inst = tune::make_training_instance(
      session.n(), InputDistribution::kUnbiased, rng, local.scheduler());
  Grid2D x(session.n(), 0.0);
  x.copy_from(inst.problem.x0);
  for (int cycle = 0; cycle < 2; ++cycle) {
    solvers::vcycle(session.operators(), x, inst.problem.b,
                    solvers::VCycleOptions{}, local.scheduler(),
                    local.direct(), local.scratch());
  }
  const auto after = local.scratch().stats();
  EXPECT_GT(after.hits, warm.hits);
  EXPECT_EQ(after.misses, warm.misses);  // nothing allocated on the path
  // The tuned walks too: FMG's estimate phases and the V/FMG recursion
  // bodies hold two grids per coarse side, which the warm-up stocks.
  const int top = trained().accuracy_count() - 1;
  x.copy_from(inst.problem.x0);
  session.solve_fmg(x, inst.problem.b, top);
  x.copy_from(inst.problem.x0);
  session.solve_v(x, inst.problem.b, top);
  const auto tuned = local.scratch().stats();
  EXPECT_GT(tuned.hits, after.hits);
  EXPECT_EQ(tuned.misses, warm.misses);
}

TEST(SolveSession, SolveVMeetsAccuracyContractAndReportsStats) {
  const int n = size_of_level(5);
  SolveSession session(engine(), trained(), n);
  Rng rng(22);
  auto inst = tune::make_training_instance(n, InputDistribution::kUnbiased,
                                           rng, engine().scheduler());
  for (int i = 0; i < trained().accuracy_count(); ++i) {
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    const SolveStats stats = session.solve_v(x, inst.problem.b, i);
    EXPECT_EQ(stats.n, n);
    EXPECT_EQ(stats.level, 5);
    EXPECT_EQ(stats.accuracy_index, i);
    EXPECT_GE(stats.seconds, 0.0);
    const double target =
        trained().accuracies()[static_cast<std::size_t>(i)];
    EXPECT_GE(tune::accuracy_of(inst, x, engine().scheduler()), 0.2 * target);
  }
}

TEST(SolveSession, RejectsMismatchedOperandsAndUntrainedLevels) {
  const int n = size_of_level(4);
  SolveSession session(engine(), trained(), n);
  Grid2D small(size_of_level(3), 0.0), b(n, 0.0), x(n, 0.0);
  EXPECT_THROW(session.solve_v(small, b, 0), Error);
  EXPECT_THROW(session.solve_v(x, small, 0), Error);
  // trained() covers levels up to 5; a level-6 session is invalid.
  EXPECT_THROW(SolveSession(engine(), trained(), size_of_level(6)), Error);
  EXPECT_THROW(SolveSession(engine(), trained(), 10), Error);
}

TEST(SolveSession, SolutionsAreBitIdenticalAcrossWorkerCounts) {
  // The solve path has no floating-point reductions, so the same config
  // must produce the same bits on a serial engine and a 4-thread engine —
  // the property the concurrent-service stress test leans on.
  const int n = size_of_level(5);
  Engine serial(rt::serial_profile());
  SolveSession parallel_session(engine(), trained(), n);
  SolveSession serial_session(serial, trained(), n);
  Rng rng(44);
  auto inst = tune::make_training_instance(n, InputDistribution::kBiased, rng,
                                           serial.scheduler());
  const int top = trained().accuracy_count() - 1;
  Grid2D xp(n, 0.0), xs(n, 0.0);
  xp.copy_from(inst.problem.x0);
  xs.copy_from(inst.problem.x0);
  parallel_session.solve_v(xp, inst.problem.b, top);
  serial_session.solve_v(xs, inst.problem.b, top);
  EXPECT_TRUE(bitwise_equal(xp, xs));
  xp.copy_from(inst.problem.x0);
  xs.copy_from(inst.problem.x0);
  parallel_session.solve_fmg(xp, inst.problem.b, top);
  serial_session.solve_fmg(xs, inst.problem.b, top);
  EXPECT_TRUE(bitwise_equal(xp, xs));
}

TEST(Engine, TunedConfigRoundTripsThroughTheDiskCache) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pbmg_engine_cache_test";
  std::filesystem::remove_all(dir);
  EngineOptions options;
  options.profile = rt::serial_profile();
  options.cache_dir = dir.string();
  Engine cached(options);
  tune::TrainerOptions trainer_options;
  trainer_options.max_level = 3;
  trainer_options.train_fmg = false;
  bool from_cache = true;
  const auto first = cached.tuned_config(trainer_options, -1, &from_cache);
  EXPECT_FALSE(from_cache);
  const auto second = cached.tuned_config(trainer_options, -1, &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(first.to_json().dump(), second.to_json().dump());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pbmg
