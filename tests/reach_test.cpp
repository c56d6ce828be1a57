// Tests for the reachability walk (tune::reach) and the bindings built on
// it: a binding prepares only what the solves entering its top can run.
// PreparedOperator builds the Galerkin RAP ladder only when a reachable
// cell reads it below the top, warms line-smoother scratch only when a
// reachable body runs a line smoother, and counts the fine operator once.
// Every case is checked bit for bit against a TunedExecutor bound to both
// full ladders, which reads whatever a table asks for.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/solve_session.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "grid/stencil_op.h"
#include "support/rng.h"
#include "tune/dynamic.h"
#include "tune/executor.h"
#include "tune/table.h"
#include "tune/trainer.h"

namespace pbmg::tune {
namespace {

rt::MachineProfile test_profile(const char* name) {
  rt::MachineProfile p;
  p.name = name;
  p.threads = 4;
  p.grain_rows = 4;
  return p;
}

/// Runs the full-ladder reference executors.
Engine& reference_engine() {
  static Engine instance(test_profile("reach-reference"));
  return instance;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr int kTop = 5;  // n = 33

/// All-averaged, point-SOR table with certified chains: V_i recurses on
/// V_{max(i−1, 0)}, FMG_i estimates with FMG_i and recurses on
/// V_{max(i−1, 0)}.  From the top, V_4 one level down is never reached,
/// which the cases below use as a decoy.
TunedConfig base_config(int max_level) {
  TunedConfig config(paper_accuracies(), max_level);
  for (int level = 2; level <= max_level; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      VEntry& v = config.v_entry(level, i);
      v.choice.kind = VKind::kRecurse;
      v.choice.sub_accuracy = std::max(i - 1, 0);
      v.choice.iterations = i + 1;
      v.trained = true;
      FmgEntry& f = config.fmg_entry(level, i);
      f.choice.kind = FmgKind::kEstimateThenRecurse;
      f.choice.estimate_accuracy = i;
      f.choice.solve_accuracy = std::max(i - 1, 0);
      f.choice.iterations = 1;
      f.trained = true;
    }
  }
  config.op_family = "base";
  config.strategy = "hand-built";
  return config;
}

/// Puts RAP and a line smoother on the unreachable V_4 one level down.
void plant_decoy(TunedConfig& config, int top) {
  VChoice& decoy = config.v_entry(top - 1, 4).choice;
  decoy.coarsening = grid::Coarsening::kRap;
  decoy.smoother = solvers::RelaxKind::kLineZebraAlt;
}

struct Case {
  std::string name;
  TunedConfig config;
  Reach expected;
};

std::vector<Case> cases(int top) {
  std::vector<Case> out;
  const int m = static_cast<int>(paper_accuracies().size());
  {
    // RAP only on certified top-level cells: exact on the fine operator,
    // so no ladder.
    TunedConfig c = base_config(top);
    for (int i = 0; i < m; ++i) {
      c.v_entry(top, i).choice.coarsening = grid::Coarsening::kRap;
      c.fmg_entry(top, i).choice.coarsening = grid::Coarsening::kRap;
    }
    plant_decoy(c, top);
    out.push_back({"rap-at-top", c, {false, false}});
  }
  {
    // A certified chain reaching RAP cells two levels down.
    TunedConfig c = base_config(top);
    for (int i = 0; i < m; ++i) {
      c.v_entry(top - 2, i).choice.coarsening = grid::Coarsening::kRap;
    }
    out.push_back({"rap-two-down", c, {true, false}});
  }
  {
    // A classical ramp from a top RAP cell reads RAP down to the level-1
    // direct solve.
    TunedConfig c = base_config(top);
    VChoice& v = c.v_entry(top, 2).choice;
    v.sub_accuracy = kClassicalCoarse;
    v.coarsening = grid::Coarsening::kRap;
    plant_decoy(c, top);
    out.push_back({"classical-ramp", c, {true, false}});
  }
  {
    // An FMG ESTIMATE chain reaching an estimate+recurse RAP cell two
    // levels down; no V cell reads RAP.
    TunedConfig c = base_config(top);
    for (int i = 0; i < m; ++i) {
      c.fmg_entry(top - 2, i).choice.coarsening = grid::Coarsening::kRap;
    }
    out.push_back({"fmg-estimate-chain", c, {true, false}});
  }
  {
    // A line smoother reachable only through FMG's estimate phase.
    TunedConfig c = base_config(top);
    for (int i = 0; i < m; ++i) {
      c.fmg_entry(top - 1, i).choice.smoother =
          solvers::RelaxKind::kLineZebraAlt;
    }
    out.push_back({"fmg-line-smoother", c, {false, true}});
  }
  return out;
}

/// An executor bound to both full ladders of one fine operator.
struct FullLadders {
  explicit FullLadders(const grid::StencilOp& op)
      : ops(op), rap(op, grid::Coarsening::kRap) {}
  TunedExecutor executor(const TunedConfig& config) const {
    Engine& e = reference_engine();
    return TunedExecutor(config, e.scheduler(), e.direct(), e.scratch(),
                         e.relax(), ops, &rap);
  }
  grid::StencilHierarchy ops;
  grid::StencilHierarchy rap;
};

/// Random interior guess over the problem's Dirichlet ring.
Grid2D random_guess(const PoissonProblem& problem, Rng& rng) {
  Grid2D x = problem.x0;
  for (int i = 1; i < x.n() - 1; ++i) {
    for (int j = 1; j < x.n() - 1; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
  }
  return x;
}

/// Every accuracy's V, FMG, K=4 V batch and K=3 FMG batch through a
/// session bound to `op` must be memcmp-equal to the full-ladder
/// executor's solo solves.
void expect_session_matches(const TunedConfig& config,
                            const grid::StencilOp& op, const std::string& label,
                            std::uint64_t seed) {
  Engine local(test_profile("reach-session"));
  const SolveSession session(local, config, op);
  const FullLadders full(op);
  const TunedExecutor ref = full.executor(config);
  Rng rng(seed);
  const PoissonProblem problem =
      make_problem(op.n(), InputDistribution::kUnbiased, rng);
  const auto warm = local.scratch().stats();
  for (int i = 0; i < config.accuracy_count(); ++i) {
    for (const bool fmg : {false, true}) {
      Grid2D x = problem.x0;
      Grid2D expected = problem.x0;
      if (fmg) {
        session.solve_fmg(x, problem.b, i);
        ref.run_fmg(expected, problem.b, i);
      } else {
        session.solve_v(x, problem.b, i);
        ref.run_v(expected, problem.b, i);
      }
      EXPECT_TRUE(bitwise_equal(x, expected))
          << label << (fmg ? " FMG " : " V ") << i;
    }
  }
  // The warm-up stocked every grid the solo walks lease, line-smoother
  // workspaces included.
  EXPECT_EQ(local.scratch().stats().misses, warm.misses) << label;
  // Batches walk the same spans solo solves do: K = 4 V and K = 3 FMG
  // (ESTIMATE ramps over spans included) against solo reference solves.
  for (int i = 0; i < config.accuracy_count(); ++i) {
    for (const bool fmg : {false, true}) {
      const std::size_t k_count = fmg ? 3 : 4;
      std::vector<Grid2D> xs;
      for (std::size_t k = 0; k < k_count; ++k) {
        xs.push_back(random_guess(problem, rng));
      }
      std::vector<Grid2D> expected = xs;
      std::vector<Grid2D*> slots;
      for (Grid2D& x : xs) slots.push_back(&x);
      if (fmg) {
        session.solve_batch_fmg(slots, problem.b, i);
      } else {
        session.solve_batch_v(slots, problem.b, i);
      }
      for (std::size_t k = 0; k < k_count; ++k) {
        if (fmg) {
          ref.run_fmg(expected[k], problem.b, i);
        } else {
          ref.run_v(expected[k], problem.b, i);
        }
        EXPECT_TRUE(bitwise_equal(xs[k], expected[k]))
            << label << (fmg ? " FMG" : " V") << " batch " << i << " slot "
            << k;
      }
    }
  }
}

/// V through a two-rung DynamicSolver (the case's table first, then the
/// base table), replayed variant by variant on full-ladder executors.
void expect_dynamic_matches(const TunedConfig& config,
                            const grid::StencilOp& op,
                            const std::string& label, std::uint64_t seed) {
  Engine local(test_profile("reach-dynamic"));
  const auto first = std::make_shared<const TunedConfig>(config);
  const auto second = std::make_shared<const TunedConfig>(base_config(kTop));
  const DynamicSolver solver(op, {{"case", first}, {"base", second}},
                             local.scheduler(), local.direct(),
                             local.scratch(), local.relax());
  const FullLadders full(op);
  const TunedExecutor case_ref = full.executor(*first);
  const TunedExecutor base_ref = full.executor(*second);
  Rng rng(seed);
  const PoissonProblem problem =
      make_problem(op.n(), InputDistribution::kUnbiased, rng);
  Grid2D x = problem.x0;
  const DynamicResult result = solver.solve(x, problem.b, 1e12, 12);
  ASSERT_FALSE(result.variants.empty()) << label;
  Grid2D expected = problem.x0;
  for (const VariantRun& run : result.variants) {
    const TunedExecutor& ref = run.family == "case" ? case_ref : base_ref;
    ref.run_v(expected, problem.b, run.accuracy_index);
  }
  EXPECT_TRUE(bitwise_equal(x, expected)) << label;
}

std::vector<grid::StencilOp> operators(int top) {
  const int n = size_of_level(top);
  return {grid::StencilOp::poisson(n),
          make_operator(n, OperatorFamily::kJumpCoefficient)};
}

TEST(Reach, WalkFindsWhatTheSolvesFromTheTopRead) {
  for (const Case& c : cases(kTop)) {
    const Reach got = reach(c.config, kTop);
    EXPECT_EQ(got.rap_below_top, c.expected.rap_below_top) << c.name;
    EXPECT_EQ(got.line_smoothers, c.expected.line_smoothers) << c.name;
  }
  // Entered one level down, the decoy V_4 is a top cell: its line
  // smoother counts, and its RAP reads the shared fine operator.
  TunedConfig decoy = base_config(kTop);
  plant_decoy(decoy, kTop);
  const Reach below = reach(decoy, kTop - 1);
  EXPECT_FALSE(below.rap_below_top);
  EXPECT_TRUE(below.line_smoothers);
  EXPECT_THROW(reach(decoy, kTop + 1), InvalidArgument);
}

TEST(Reach, SessionsMatchAnExecutorBoundToBothFullLadders) {
  std::uint64_t seed = 100;
  for (const Case& c : cases(kTop)) {
    for (const grid::StencilOp& op : operators(kTop)) {
      const std::string label =
          c.name + (op.is_poisson() ? " poisson" : " jump");
      expect_session_matches(c.config, op, label, ++seed);
      expect_dynamic_matches(c.config, op, label, ++seed);
    }
  }
}

TEST(Reach, RapBelowTheTopWithoutALadderThrows) {
  // An executor bound to the averaged ladder alone serves RAP cells at
  // the top from the shared fine operator, and fails loudly below it.
  const grid::StencilOp op = make_operator(size_of_level(kTop),
                                           OperatorFamily::kJumpCoefficient);
  const FullLadders full(op);
  Engine& e = reference_engine();
  const std::vector<Case> all = cases(kTop);
  Rng rng(8);
  const PoissonProblem problem =
      make_problem(op.n(), InputDistribution::kUnbiased, rng);
  const TunedExecutor top_only(all[0].config, e.scheduler(), e.direct(),
                               e.scratch(), e.relax(), full.ops, nullptr);
  Grid2D x = problem.x0;
  Grid2D expected = problem.x0;
  top_only.run_v(x, problem.b, 3);
  full.executor(all[0].config).run_v(expected, problem.b, 3);
  EXPECT_TRUE(bitwise_equal(x, expected));
  const TunedExecutor below(all[1].config, e.scheduler(), e.direct(),
                            e.scratch(), e.relax(), full.ops, nullptr);
  Grid2D y = problem.x0;
  EXPECT_THROW(below.run_v(y, problem.b, 3), InvalidArgument);
}

TEST(Reach, FootprintCountsTheFineOperatorOnce) {
  // The RAP ladder's top is the averaged ladder's top: a binding pays
  // only for the RAP levels below it, and nothing when no solve reads
  // them.
  const grid::StencilOp op = make_operator(size_of_level(kTop),
                                           OperatorFamily::kJumpCoefficient);
  Engine local(test_profile("reach-footprint"));
  const std::vector<Case> all = cases(kTop);
  const SolveSession plain(local, base_config(kTop), op);
  const SolveSession at_top(local, all[0].config, op);
  const SolveSession two_down(local, all[1].config, op);
  const grid::StencilHierarchy rap(op, grid::Coarsening::kRap);
  std::size_t below_top = 0;
  for (int k = 1; k < kTop; ++k) below_top += rap.at(k).bytes();
  ASSERT_GT(rap.at(kTop).bytes(), 0u);
  EXPECT_EQ(at_top.footprint_bytes(), plain.footprint_bytes());
  EXPECT_EQ(two_down.footprint_bytes(), plain.footprint_bytes() + below_top);
}

TEST(Reach, TrainedTableMatchesTheFullLaddersAtEveryTop) {
  // A table from the trainer (both coarsenings and every smoother raced)
  // on the rotated-anisotropy family, entered at each of its levels.
  TrainerOptions options;
  options.max_level = kTop;
  options.op_family = OperatorFamily::kAnisoTheta45;
  options.seed = 4545;
  Engine& e = reference_engine();
  Trainer trainer(options, e);
  const TunedConfig config = trainer.train();
  std::uint64_t seed = 900;
  for (int top = 2; top <= kTop; ++top) {
    const grid::StencilOp op =
        make_operator(size_of_level(top), OperatorFamily::kAnisoTheta45);
    expect_session_matches(config, op, "trained top " + std::to_string(top),
                           ++seed);
  }
}

}  // namespace
}  // namespace pbmg::tune
