// Tests for the population-based runtime-parameter search (src/search/):
// parameter-space construction/mutation/serialization, candidate testing
// with early-abandon and timeout pruning, the deterministic elitist
// population engine, and the concrete machine-profile search wiring.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/problem.h"
#include "runtime/scheduler.h"
#include "search/candidate_tester.h"
#include "search/param_space.h"
#include "search/population.h"
#include "search/profile_search.h"
#include "solvers/direct.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"
#include "support/rng.h"
#include "support/timer.h"

namespace pbmg::search {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ParamSpace toy_space() {
  ParamSpace space;
  space.add_int("a", 0, 64, 32)
      .add_log_int("g", 1, 256, 8)
      .add_float("w", 0.0, 2.0, 1.0)
      .add_categorical("c", {"x", "y", "z"}, 0);
  return space;
}

rt::Scheduler& serial_sched() {
  static rt::Scheduler instance(rt::serial_profile());
  return instance;
}

std::vector<tune::TrainingInstance> tiny_instances(int count = 1) {
  Rng rng(42);
  std::vector<tune::TrainingInstance> instances;
  for (int i = 0; i < count; ++i) {
    instances.push_back(tune::make_training_instance(
        5, InputDistribution::kUnbiased, rng, serial_sched()));
  }
  return instances;
}

// ----------------------------------------------------------- param space --

TEST(ParamSpace, BuildersValidate) {
  ParamSpace space;
  EXPECT_THROW(space.add_int("a", 5, 4, 5), InvalidArgument);       // empty
  EXPECT_THROW(space.add_int("a", 0, 4, 9), InvalidArgument);       // default
  EXPECT_THROW(space.add_log_int("a", 0, 4, 1), InvalidArgument);   // lo < 1
  EXPECT_THROW(space.add_categorical("a", {}, 0), InvalidArgument); // empty
  space.add_int("a", 0, 4, 2);
  EXPECT_THROW(space.add_float("a", 0, 1, 0), InvalidArgument);     // dup name
  EXPECT_EQ(space.size(), 1);
  EXPECT_EQ(space.index_of("a"), 0);
  EXPECT_THROW(space.index_of("nope"), InvalidArgument);
}

TEST(ParamSpace, DefaultsAndTypedAccessors) {
  const ParamSpace space = toy_space();
  const Candidate def = space.default_candidate();
  EXPECT_EQ(space.int_value(def, "a"), 32);
  EXPECT_EQ(space.int_value(def, "g"), 8);
  EXPECT_DOUBLE_EQ(space.float_value(def, "w"), 1.0);
  EXPECT_EQ(space.categorical_value(def, "c"), "x");
  EXPECT_THROW(space.float_value(def, "a"), InvalidArgument);  // kind mismatch
  EXPECT_THROW(space.int_value(def, "w"), InvalidArgument);
  EXPECT_THROW(space.categorical_value(def, "a"), InvalidArgument);
}

TEST(ParamSpace, RandomAndMutatedStayInBounds) {
  const ParamSpace space = toy_space();
  Rng rng(7);
  Candidate current = space.default_candidate();
  for (int i = 0; i < 500; ++i) {
    const Candidate c =
        (i % 2 == 0) ? space.random_candidate(rng) : space.mutated(current, rng);
    ASSERT_EQ(c.values.size(), static_cast<std::size_t>(space.size()));
    for (int d = 0; d < space.size(); ++d) {
      const Dimension& dim = space.dimensions()[static_cast<std::size_t>(d)];
      ASSERT_GE(c.values[static_cast<std::size_t>(d)], dim.lo) << dim.name;
      ASSERT_LE(c.values[static_cast<std::size_t>(d)], dim.hi) << dim.name;
      if (dim.kind != DimKind::kFloat) {
        ASSERT_EQ(c.values[static_cast<std::size_t>(d)],
                  std::round(c.values[static_cast<std::size_t>(d)]))
            << dim.name << " must stay integral";
      }
    }
    current = c;
  }
}

TEST(ParamSpace, MutationChangesExactlyOneDimension) {
  const ParamSpace space = toy_space();
  Rng rng(11);
  const Candidate base = space.default_candidate();
  for (int i = 0; i < 100; ++i) {
    const Candidate m = space.mutated(base, rng);
    int changed = 0;
    for (std::size_t d = 0; d < base.values.size(); ++d) {
      if (m.values[d] != base.values[d]) ++changed;
    }
    ASSERT_LE(changed, 1);
  }
}

TEST(ParamSpace, MutationIsDeterministicInSeed) {
  const ParamSpace space = toy_space();
  Rng a(99), b(99);
  Candidate ca = space.default_candidate();
  Candidate cb = space.default_candidate();
  for (int i = 0; i < 50; ++i) {
    ca = space.mutated(ca, a);
    cb = space.mutated(cb, b);
    ASSERT_EQ(ca.values, cb.values);
  }
}

TEST(ParamSpace, JsonRoundTrip) {
  const ParamSpace space = toy_space();
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Candidate c = space.random_candidate(rng);
    const Candidate back = space.from_json(space.to_json(c));
    EXPECT_EQ(back.values, c.values);
  }
  // Missing keys fall back to defaults; unknown keys are ignored.
  Json partial = Json::object();
  partial.set("a", 7);
  partial.set("not_a_dimension", 1.5);
  const Candidate c = space.from_json(partial);
  EXPECT_EQ(space.int_value(c, "a"), 7);
  EXPECT_EQ(space.int_value(c, "g"), 8);
  // Unknown categorical labels are rejected, not silently defaulted.
  Json bad = Json::object();
  bad.set("c", "not-a-label");
  EXPECT_THROW(space.from_json(bad), ConfigError);
}

TEST(ParamSpace, DescribeAndFingerprint) {
  const ParamSpace space = toy_space();
  const Candidate def = space.default_candidate();
  const std::string desc = space.describe(def);
  EXPECT_NE(desc.find("a=32"), std::string::npos);
  EXPECT_NE(desc.find("c=x"), std::string::npos);
  Candidate other = def;
  other.values[0] = 33;
  EXPECT_NE(space.fingerprint(def), space.fingerprint(other));
  EXPECT_EQ(space.fingerprint(def), space.fingerprint(def));
}

// ------------------------------------------------------ candidate tester --

TEST(CandidateTester, AveragesOverInstances) {
  const ParamSpace space = toy_space();
  CandidateTester tester(
      space,
      [&](const Candidate& c, const tune::TrainingInstance&, const Deadline&) {
        return 0.25 + 0.001 * space.float_value(c, "w");
      },
      tiny_instances(2));
  const TestResult r = tester.test(space.default_candidate());
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.instances_run, 2);
  EXPECT_NEAR(r.total_seconds, 2 * (0.25 + 0.001), 1e-12);
  EXPECT_NEAR(r.mean_seconds, 0.25 + 0.001, 1e-12);
  EXPECT_EQ(tester.evaluations(), 2);
}

TEST(CandidateTester, EarlyAbandonsAgainstIncumbent) {
  const ParamSpace space = toy_space();
  int calls = 0;
  CandidateTester tester(
      space,
      [&](const Candidate&, const tune::TrainingInstance&, const Deadline&) {
        ++calls;
        return 1.0;
      },
      tiny_instances(3));
  // Incumbent total 0.1 ⇒ budget ≈ 0.2; the first instance alone blows it.
  const TestResult r = tester.test(space.default_candidate(), 0.1);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.instances_run, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.total_seconds, kInf);
  // Without an incumbent the same candidate completes.
  const TestResult full = tester.test(space.default_candidate());
  EXPECT_TRUE(full.completed);
  EXPECT_EQ(full.instances_run, 3);
}

TEST(CandidateTester, InfiniteCostMeansFailure) {
  const ParamSpace space = toy_space();
  CandidateTester tester(
      space,
      [](const Candidate&, const tune::TrainingInstance&, const Deadline&) {
        return kInf;
      },
      tiny_instances(2));
  const TestResult r = tester.test(space.default_candidate());
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.instances_run, 1);
}

TEST(CandidateTester, TimeoutStopsBetweenInstances) {
  const ParamSpace space = toy_space();
  TesterOptions options;
  options.timeout_seconds = 1e-9;  // expired before the first check
  CandidateTester tester(
      space,
      [](const Candidate&, const tune::TrainingInstance&, const Deadline&) {
        return 0.001;
      },
      tiny_instances(3), options);
  const TestResult r = tester.test(space.default_candidate());
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.instances_run, 1);
}

// ---------------------------------------------------- population search --

/// Deterministic synthetic objective with a known optimum, computed
/// through a 1-worker scheduler so floating-point reduction order is fixed.
double synthetic_cost(const ParamSpace& space, const Candidate& c) {
  const double a = static_cast<double>(space.int_value(c, "a"));
  const double g = static_cast<double>(space.int_value(c, "g"));
  const double w = space.float_value(c, "w");
  const std::string& label = space.categorical_value(c, "c");
  const double base = serial_sched().parallel_reduce_sum(
      0, 8, 8, [&](std::int64_t lo, std::int64_t hi) {
        double s = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) {
          s += (a - 17.0) * (a - 17.0) / 4096.0 +
               (std::log2(g) - 5.0) * (std::log2(g) - 5.0) / 64.0 +
               (w - 1.3) * (w - 1.3);
        }
        return s;
      });
  return 1e-3 * (1.0 + base) + (label == "y" ? 0.0 : 1e-4);
}

PopulationOptions fast_population_options(std::uint64_t seed = 20091114) {
  PopulationOptions options;
  options.population = 4;
  options.mutants_per_elite = 2;
  options.immigrants = 1;
  options.generations = 12;
  options.seed = seed;
  return options;
}

TEST(PopulationSearch, ImprovesOnTheDefault) {
  const ParamSpace space = toy_space();
  CandidateTester tester(
      space,
      [&](const Candidate& c, const tune::TrainingInstance&, const Deadline&) {
        return synthetic_cost(space, c);
      },
      tiny_instances(1));
  PopulationSearch engine(space, tester, fast_population_options());
  const SearchResult result = engine.run();
  const double default_cost =
      synthetic_cost(space, space.default_candidate());
  EXPECT_LT(result.best.total_seconds, default_cost);
  EXPECT_NEAR(result.default_total_seconds, default_cost, 1e-12);
  EXPECT_GT(result.evaluations, 0);
  EXPECT_EQ(result.generations_run, 12);
  EXPECT_EQ(result.best_history.size(), 12u);
  // History is monotonically non-increasing (elitism never loses ground).
  for (std::size_t i = 1; i < result.best_history.size(); ++i) {
    EXPECT_LE(result.best_history[i], result.best_history[i - 1]);
  }
}

/// Satellite contract: a fixed seed returns an identical best candidate
/// across two runs on a 1-thread scheduler.
TEST(PopulationSearch, DeterministicBestWithFixedSeed) {
  const ParamSpace space = toy_space();
  const auto run_once = [&] {
    CandidateTester tester(
        space,
        [&](const Candidate& c, const tune::TrainingInstance&,
            const Deadline&) { return synthetic_cost(space, c); },
        tiny_instances(1));
    PopulationSearch engine(space, tester, fast_population_options(777));
    return engine.run();
  };
  const SearchResult first = run_once();
  const SearchResult second = run_once();
  EXPECT_EQ(first.best.candidate.values, second.best.candidate.values);
  EXPECT_EQ(first.best.total_seconds, second.best.total_seconds);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.best_history, second.best_history);
}

TEST(PopulationSearch, RecoversWhenOnlyOneCategoricalValueIsFeasible) {
  // Regression for the smoother choice dimension: a categorical axis can
  // make most of the space infeasible on a given workload (only the
  // alternating-zebra smoother converges on the rotated-anisotropy
  // family), and the default plus the random seed round may then be
  // all-DNF.  The search must keep racing immigrants until it finds the
  // feasible region instead of throwing after the seed round.
  const ParamSpace space = toy_space();  // default "c" label is "x"
  CandidateTester tester(
      space,
      [&](const Candidate& c, const tune::TrainingInstance&,
          const Deadline&) {
        // Feasible only at the non-default label "z"; faster for small a.
        if (space.categorical_value(c, "c") != "z") return kInf;
        return 1e-4 + 1e-6 * static_cast<double>(space.int_value(c, "a"));
      },
      tiny_instances(1));
  PopulationOptions options = fast_population_options(7);
  PopulationSearch engine(space, tester, options);
  const SearchResult result = engine.run();
  EXPECT_EQ(space.categorical_value(result.best.candidate, "c"), "z");
  EXPECT_TRUE(std::isinf(result.default_total_seconds));
  EXPECT_TRUE(std::isfinite(result.best.total_seconds));
}

TEST(PopulationSearch, ThrowsWhenNothingCompletes) {
  const ParamSpace space = toy_space();
  CandidateTester tester(
      space,
      [](const Candidate&, const tune::TrainingInstance&, const Deadline&) {
        return kInf;
      },
      tiny_instances(1));
  PopulationSearch engine(space, tester, fast_population_options());
  EXPECT_THROW(engine.run(), NumericalError);
}

// ------------------------------------------------------- profile search --

TEST(ProfileSearch, SpaceDefaultsReproduceTheBaseProfile) {
  rt::MachineProfile base;
  base.threads = 2;
  base.grain_rows = 16;
  base.sequential_cutoff_cells = 4096;
  const ParamSpace space = make_profile_space(base);
  const RuntimeParams params =
      decode_runtime_params(space, space.default_candidate(), base);
  EXPECT_EQ(params.profile.threads, base.threads);
  EXPECT_EQ(params.profile.grain_rows, base.grain_rows);
  EXPECT_EQ(params.profile.sequential_cutoff_cells,
            base.sequential_cutoff_cells);
  EXPECT_DOUBLE_EQ(params.relax.recurse_omega, solvers::kRecurseOmega);
  EXPECT_DOUBLE_EQ(params.relax.omega_scale, 1.0);
  EXPECT_EQ(params.relax.kernels.layout, grid::StencilLayout::kLegacy);
  EXPECT_EQ(params.relax.kernels.simd_width, 1);
}

TEST(ProfileSearch, KernelPolicyAxesAreSearchedEvenRelaxOnly) {
  // The layout / simd_width axes ride in the relaxation group (like the
  // smoother and coarsening axes): a relax_only space must still race
  // them, and their decoded values must land in RelaxTunables::kernels.
  const rt::MachineProfile base;
  for (const bool machine : {true, false}) {
    const ParamSpace space = make_profile_space(base, machine);
    Candidate candidate = space.default_candidate();
    const auto index_of = [&](const std::string& name) {
      const auto& dims = space.dimensions();
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (dims[d].name == name) return d;
      }
      ADD_FAILURE() << "missing dimension " << name
                    << " (machine=" << machine << ")";
      return std::size_t{0};
    };
    candidate.values[index_of("layout")] = 1.0;      // "packed"
    candidate.values[index_of("simd_width")] = 2.0;  // "4"
    const RuntimeParams params = decode_runtime_params(space, candidate, base);
    EXPECT_EQ(params.relax.kernels.layout, grid::StencilLayout::kPacked);
    EXPECT_EQ(params.relax.kernels.simd_width, 4);
  }
}

TEST(ProfileSearch, ProfileTunablesRoundTripThroughWithTunable) {
  const rt::MachineProfile base;
  for (const rt::ProfileTunable& t : rt::profile_tunables(base)) {
    const rt::MachineProfile p = rt::with_tunable(base, t.name, t.hi);
    EXPECT_NE(rt::profile_to_json(p).dump(),
              rt::profile_to_json(rt::with_tunable(base, t.name, t.lo)).dump())
        << t.name;
  }
  EXPECT_THROW(rt::with_tunable(base, "spawn_overhead_ns", 1), InvalidArgument);
}

TEST(ProfileSearch, SearchedProfileJsonRoundTrip) {
  SearchedProfile sp;
  sp.profile = rt::barcelona_profile();
  sp.profile.name = "barcelona+searched";
  sp.relax.recurse_omega = 1.21;
  sp.relax.omega_scale = 0.95;
  sp.default_seconds = 0.5;
  sp.searched_seconds = 0.25;
  sp.evaluations = 17;
  sp.seed = 1234;
  sp.generations = 4;
  sp.population = 3;
  sp.relax.kernels.layout = grid::StencilLayout::kPacked;
  sp.relax.kernels.simd_width = 4;
  const SearchedProfile back = SearchedProfile::from_json(sp.to_json());
  EXPECT_EQ(back.profile.name, sp.profile.name);
  EXPECT_EQ(back.profile.threads, sp.profile.threads);
  EXPECT_EQ(back.profile.grain_rows, sp.profile.grain_rows);
  EXPECT_EQ(back.profile.sequential_cutoff_cells,
            sp.profile.sequential_cutoff_cells);
  EXPECT_DOUBLE_EQ(back.relax.recurse_omega, sp.relax.recurse_omega);
  EXPECT_DOUBLE_EQ(back.relax.omega_scale, sp.relax.omega_scale);
  EXPECT_EQ(back.seed, sp.seed);
  EXPECT_EQ(back.generations, sp.generations);
  EXPECT_EQ(back.population, sp.population);
  EXPECT_EQ(back.relax.kernels.layout, grid::StencilLayout::kPacked);
  EXPECT_EQ(back.relax.kernels.simd_width, 4);
  // Out-of-range relax weights are rejected on load.
  Json bad = sp.to_json();
  bad.set("recurse_omega", 2.5);
  EXPECT_THROW(SearchedProfile::from_json(bad), ConfigError);
  // Documents from before the kernel-policy axes read as legacy scalar
  // kernels; invalid widths are rejected like any bad relax field.
  Json old = sp.to_json();
  old.as_object().erase("layout");
  old.as_object().erase("simd_width");
  const SearchedProfile migrated = SearchedProfile::from_json(old);
  EXPECT_EQ(migrated.relax.kernels.layout, grid::StencilLayout::kLegacy);
  EXPECT_EQ(migrated.relax.kernels.simd_width, 1);
  Json bad_width = sp.to_json();
  bad_width.set("simd_width", std::int64_t{3});
  EXPECT_THROW(SearchedProfile::from_json(bad_width), ConfigError);
  // Older documents also carry the workload's smoother and coarsening,
  // which nothing reads any more: they load, and are ignored.
  Json older = sp.to_json();
  older.set("smoother", std::string("line_x"));
  older.set("coarsening", std::string("rap"));
  EXPECT_EQ(SearchedProfile::from_json(older).to_json().dump(),
            sp.to_json().dump());
}

TEST(ProfileSearch, EndToEndOnATinyWorkload) {
  search::ProfileSearchOptions options;
  options.base = rt::serial_profile();
  options.base.name = "serial";
  options.level = 3;  // N = 9: each evaluation is sub-millisecond
  options.instances = 1;
  options.seed = 5;
  options.population.population = 2;
  options.population.mutants_per_elite = 1;
  options.population.immigrants = 1;
  options.population.generations = 2;
  const SearchedProfile searched = search_profile(options);
  EXPECT_EQ(searched.profile.name, "serial+searched");
  // The default candidate is always raced first, so the winner can never
  // be slower than the un-searched configuration.
  EXPECT_LE(searched.searched_seconds, searched.default_seconds);
  EXPECT_GT(searched.evaluations, 0);
  EXPECT_GT(searched.relax.recurse_omega, 0.0);
  EXPECT_LT(searched.relax.recurse_omega, 2.0);
}

// ------------------------------------------------ packed-layout discovery --

/// The contract, mirroring the trainer's line-smoother discovery
/// (tune_test's DiscoversLineSmootherAtExtremeAnisotropy): the layout /
/// simd_width axes exist so the *search* can pick the wide rows where
/// they pay — the fig20-class 9-point operators, whose rows load the
/// most couplings per cell, run at one lane under the legacy layout and
/// at simd_width lanes under the packed one.  The two arms are bitwise
/// identical, so the outcome is decided purely by measured time; that
/// makes the test machine-dependent by construction, and it calibrates
/// the arms head-to-head first — when this machine shows no clear
/// separation there is nothing to discover and the test skips rather
/// than flakes.
TEST(ProfileSearch, DiscoversPackedLayoutOnNinePointWork) {
#ifdef PBMG_SANITIZER_BUILD
  // At -O1 under sanitizer instrumentation the search objective is
  // dominated by check overhead, not kernel memory traffic, so the raw
  // sweep calibration below no longer predicts what the search measures
  // inside full solves — the contract only holds under release codegen.
  GTEST_SKIP() << "timing contract requires release codegen";
#endif
  const int level = 6;
  const int n = size_of_level(level);
  const OperatorFamily family = OperatorFamily::kAnisoTheta30;
  const grid::StencilOp op = make_operator(n, family);
  Engine eng(rt::MachineProfile{});
  rt::Scheduler& sched = eng.scheduler();

  grid::KernelPolicy packed;
  packed.layout = grid::StencilLayout::kPacked;
  packed.simd_width = grid::clamp_simd_width(4);

  // The workload mix the profile search times on this family: residual
  // formation plus point-SOR and zebra smoothing.  Best-of-3 batches so
  // one scheduling hiccup cannot decide an arm.
  const auto time_arm = [&](const grid::KernelPolicy& k) {
    Rng rng(0xCA11B);
    Grid2D x(n, 0.0);
    Grid2D b(n, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        x(i, j) = rng.uniform(-1.0, 1.0);
        b(i, j) = rng.uniform(-1.0, 1.0);
      }
    }
    Grid2D r(n, 0.0);
    double best = kInf;
    for (int batch = 0; batch < 3; ++batch) {
      const double t0 = now_seconds();
      for (int rep = 0; rep < 10; ++rep) {
        grid::residual_op(op, x, b, r, sched, k);
        solvers::sor_sweep(op, x, b, 1.15, sched, k);
        solvers::line_relax_sweep(op, x, b,
                                  solvers::RelaxKind::kLineZebraAlt, sched,
                                  eng.scratch(), k);
      }
      best = std::min(best, now_seconds() - t0);
    }
    return best;
  };
  time_arm(grid::KernelPolicy{});  // warm caches/pools before either arm
  const double legacy_seconds = time_arm(grid::KernelPolicy{});
  const double packed_seconds = time_arm(packed);
  const bool packed_faster = packed_seconds * 1.2 < legacy_seconds;
  const bool legacy_faster = legacy_seconds * 1.2 < packed_seconds;
  if (!packed_faster && !legacy_faster) {
    GTEST_SKIP() << "arms within noise on this machine: legacy "
                 << legacy_seconds * 1e3 << " ms vs packed "
                 << packed_seconds * 1e3 << " ms";
  }

  ProfileSearchOptions options;
  options.base = rt::MachineProfile{};
  options.base.name = "packed-discovery";
  options.level = level;
  options.op_family = family;
  options.relax_only = true;  // the layout axis rides in the relax group
  options.target_accuracy = 1e3;
  options.max_cycles = 40;
  options.instances = 1;
  options.seed = 7;
  options.population.population = 4;
  options.population.mutants_per_elite = 2;
  options.population.immigrants = 2;
  options.population.generations = 3;
  const SearchedProfile searched = search_profile(options);
  EXPECT_EQ(searched.relax.kernels.layout,
            packed_faster ? grid::StencilLayout::kPacked
                          : grid::StencilLayout::kLegacy)
      << "calibration said legacy " << legacy_seconds * 1e3
      << " ms vs packed " << packed_seconds * 1e3 << " ms";
}

}  // namespace
}  // namespace pbmg::search
