// Operator fingerprinting + dynamic routing: every canonical family's
// fingerprint must self-match across grid sizes (the features are scale-
// and size-stable), rotated diffusion tensors must route to the rotated
// families, and SolveService::solve_op must serve a never-trained family
// via the nearest stand-in, fire exactly one background family retune,
// and reroute post-install with zero bit-divergence on untouched routes.
// The service test hammers solve_op from several threads while the
// retune + install_family race the binding cache — it runs under TSan in
// CI alongside drift_test.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/fingerprint.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/rng.h"
#include "tune/table.h"

namespace pbmg {
namespace {

// ---------------------------------------------------- fingerprint props --

TEST(Fingerprint, EveryFamilySelfMatchesAcrossGridSizes) {
  // The reference fingerprints are sampled at one fixed side; routing is
  // only sound if a family's fingerprint stays put as the grid refines.
  for (const int n : {17, 33, 65, 129}) {
    for (const OperatorFamily family : kAllOperatorFamilies) {
      const grid::OperatorFingerprint fp =
          grid::fingerprint(make_operator(n, family));
      const grid::FamilyMatch match = grid::nearest_family(fp);
      EXPECT_EQ(match.family, family)
          << to_string(family) << " at n=" << n << " routed to "
          << to_string(match.family);
      EXPECT_LT(match.distance, 0.5)
          << to_string(family) << " drifted at n=" << n;
    }
  }
}

TEST(Fingerprint, PoissonIsTheAllZeroFastPath) {
  const grid::OperatorFingerprint fp =
      grid::fingerprint(grid::StencilOp::poisson(65));
  EXPECT_EQ(fp.anisotropy, 0.0);
  EXPECT_EQ(fp.local_anisotropy, 0.0);
  EXPECT_EQ(fp.heterogeneity, 0.0);
  EXPECT_EQ(fp.rotation, 0.0);
  EXPECT_EQ(fp.reaction, 0.0);
}

TEST(Fingerprint, ScaleInvariant) {
  // Scaling the whole operator leaves every feature (ratios and
  // normalized differences) in place: the metric compares shape, not
  // magnitude.
  const int n = 65;
  const auto base = [](double x, double y) {
    return 1.0 + 0.5 * x + 0.25 * y;
  };
  const grid::OperatorFingerprint one =
      grid::fingerprint(grid::StencilOp::from_coefficient(n, base));
  const grid::OperatorFingerprint scaled =
      grid::fingerprint(grid::StencilOp::from_coefficient(
          n, [&](double x, double y) { return 1000.0 * base(x, y); }));
  EXPECT_NEAR(grid::fingerprint_distance(one, scaled), 0.0, 1e-9);
}

TEST(Fingerprint, RotatedTensorsRouteToRotatedFamilies) {
  // Any strongly rotated diffusion tensor — not just the two canonical
  // angles — must land on a rotated-tensor family, never on an
  // axis-aligned or isotropic one: the rotation feature is what carries
  // the cross-term signal the axis-aligned families cannot express.
  const int n = 65;
  const double eps = 1e-2;
  for (const double theta_deg : {30.0, 35.0, 40.0, 45.0}) {
    const double theta = theta_deg * std::numbers::pi / 180.0;
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    const grid::StencilOp op = grid::StencilOp::from_tensor(
        n, [&](double, double) { return c * c + eps * s * s; },
        [&](double, double) { return (1.0 - eps) * s * c; },
        [&](double, double) { return s * s + eps * c * c; }, 0.0);
    const grid::FamilyMatch match =
        grid::nearest_family(grid::fingerprint(op));
    EXPECT_TRUE(match.family == OperatorFamily::kAnisoTheta30 ||
                match.family == OperatorFamily::kAnisoTheta45)
        << "theta=" << theta_deg << " routed to "
        << to_string(match.family);
  }
}

TEST(Fingerprint, RankIsDeterministicAndCoversEveryFamily) {
  const auto ranked =
      grid::rank_families(grid::fingerprint(grid::StencilOp::poisson(33)));
  ASSERT_EQ(ranked.size(), std::size(kAllOperatorFamilies));
  EXPECT_EQ(ranked.front().family, OperatorFamily::kPoisson);
  EXPECT_EQ(ranked.front().distance, 0.0);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].distance, ranked[i].distance);
  }
}

// ------------------------------------------------------ service routing --

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "routing-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

/// Deterministic hand-built tables (no training run): every non-base
/// cell recurses with 2·(i+1) iterations against the requested ladder.
tune::TunedConfig handmade(int max_level, const std::string& family,
                           grid::Coarsening mode) {
  tune::TunedConfig config(tune::paper_accuracies(), max_level);
  for (int level = 2; level <= max_level; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      tune::VEntry& cell = config.v_entry(level, i);
      cell.choice.kind = tune::VKind::kRecurse;
      cell.choice.sub_accuracy = tune::kClassicalCoarse;
      cell.choice.iterations = 2 * (i + 1);
      cell.choice.coarsening = mode;
      cell.trained = true;
    }
  }
  config.op_family = family;
  config.strategy = "hand-built";
  return config;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(OperatorRouting, NovelFamilyServesRetunesOnceAndReroutes) {
  const int level = 5;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  std::atomic<int> retunes{0};
  std::atomic<bool> saw_jump_request{false};
  service.enable_operator_routing([&](OperatorFamily family) {
    retunes.fetch_add(1, std::memory_order_relaxed);
    if (family == OperatorFamily::kJumpCoefficient) {
      saw_jump_request.store(true, std::memory_order_relaxed);
    }
    return handmade(level, to_string(family), grid::Coarsening::kRap);
  });
  Rng rng(7);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 1e3;

  // Golden pre-install result on the matched route.
  const grid::StencilOp poisson = grid::StencilOp::poisson(n);
  Grid2D golden = problem.x0;
  tune::DynamicResult matched;
  const SolveStats first =
      service.solve_op(poisson, golden, problem.b, request, &matched);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(first.residual_checked);
  EXPECT_EQ(matched.final_family, "poisson");
  EXPECT_EQ(first.generation, 1);

  // Hammer the never-trained jump family from several threads while the
  // background retune and its install_family race the binding cache
  // (this is the TSan-raced half of the acceptance criterion).  Every
  // request must complete and converge — served by the poisson stand-in
  // before the install, by the fresh jump tables after.
  const grid::StencilOp jump =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::atomic<int> converged{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int k = 0; k < kPerThread; ++k) {
        Grid2D x = problem.x0;
        const SolveStats stats =
            service.solve_op(jump, x, problem.b, request);
        if (stats.converged) {
          converged.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(converged.load(), kThreads * kPerThread);

  // The retune fired exactly once despite the concurrent hammering, for
  // the right family, and installed as a generation EXTENSION — the id
  // did not move and in-flight sessions were untouched.
  for (int i = 0; i < 1000 && service.retune_in_progress(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(service.retune_in_progress());
  EXPECT_EQ(retunes.load(), 1);
  EXPECT_TRUE(saw_jump_request.load());
  EXPECT_EQ(service.stats().family_retunes, 1);
  EXPECT_EQ(service.generation(), 1);

  // Post-install, the same fingerprint reroutes onto the fresh family:
  // the first tuned-variant invocation runs the jump tables.  (An easy
  // target keeps the whole solve on that rung — the hand-built tables
  // don't honour the deep accuracy classes' promises, and mid-solve
  // escalation behaviour is dynamic_test's subject, not routing's.)
  Grid2D x = problem.x0;
  tune::DynamicResult routed;
  SolveRequest easy = request;
  easy.target_accuracy = 10.0;
  const SolveStats post =
      service.solve_op(jump, x, problem.b, easy, &routed);
  EXPECT_TRUE(post.converged);
  ASSERT_FALSE(routed.variants.empty());
  EXPECT_EQ(routed.variants.front().family, "jump");
  EXPECT_EQ(routed.final_family, "jump");
  EXPECT_EQ(routed.family_switches, 0);
  EXPECT_GE(routed.residual_reduction, 10.0);

  // Zero bit-divergence across the install swap: the poisson route's
  // binding was never dropped, so the same input reproduces the golden
  // bits exactly.
  Grid2D again = problem.x0;
  tune::DynamicResult still_matched;
  const SolveStats replay =
      service.solve_op(poisson, again, problem.b, request, &still_matched);
  EXPECT_TRUE(replay.converged);
  EXPECT_EQ(still_matched.final_family, "poisson");
  EXPECT_TRUE(bitwise_equal(golden, again));

  // Routing telemetry: route outcomes and the fingerprint-distance
  // histogram are exported.
  const auto snapshot = service.metrics_snapshot();
  EXPECT_GE(snapshot.counters.at(
                "pbmg_route_total{family=\"poisson\",outcome=\"matched\"}"),
            2);
  EXPECT_GE(snapshot.counters.at(
                "pbmg_route_total{family=\"jump\",outcome=\"matched\"}"),
            1);
  EXPECT_GE(
      snapshot.histograms.at("pbmg_route_fingerprint_distance").count,
      2 + kThreads * kPerThread);
  const auto stats = service.stats();
  EXPECT_EQ(stats.routed_requests, 3 + kThreads * kPerThread);
}

TEST(OperatorRouting, FailedFamilyRetuneKeepsServingAndRetries) {
  // A family retune that throws must not hurt serving: the request that
  // fired it converges on the stand-in, the failure is counted, and the
  // family re-arms so the next request for it tries again.
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  std::atomic<int> attempts{0};
  service.enable_operator_routing([&](OperatorFamily) -> tune::TunedConfig {
    attempts.fetch_add(1, std::memory_order_relaxed);
    throw ConfigError("family retune failed");
  });
  const obs::Counter& failures =
      service.metrics().counter("pbmg_drift_retune_failures_total");
  const grid::StencilOp jump =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  Rng rng(12);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 10.0;
  for (int attempt = 1; attempt <= 2; ++attempt) {
    Grid2D x = problem.x0;
    tune::DynamicResult detail;
    const SolveStats stats =
        service.solve_op(jump, x, problem.b, request, &detail);
    EXPECT_TRUE(stats.converged) << "attempt " << attempt;
    EXPECT_EQ(detail.final_family, "poisson") << "attempt " << attempt;
    for (int i = 0; i < 1000 && service.retune_in_progress(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(service.retune_in_progress());
    EXPECT_EQ(attempts.load(), attempt);
    EXPECT_EQ(failures.value(), attempt);
    EXPECT_EQ(service.stats().family_retunes, attempt);
    EXPECT_EQ(service.generation(), 1);
  }
}

TEST(OperatorRouting, RejectsFmgAndUnsetAccuracy) {
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  Grid2D x(n, 0.0), b(n, 0.0);
  SolveRequest fmg;
  fmg.fmg = true;
  fmg.target_accuracy = 1e3;
  EXPECT_THROW(service.solve_op(grid::StencilOp::poisson(n), x, b, fmg),
               ConfigError);
  EXPECT_THROW(
      service.solve_op(grid::StencilOp::poisson(n), x, b, SolveRequest{}),
      ConfigError);
  SolveRequest deep;
  deep.accuracy_index = 99;
  EXPECT_THROW(service.solve_op(grid::StencilOp::poisson(n), x, b, deep),
               ConfigError);
  EXPECT_EQ(service.stats().failures, 3);
}

TEST(OperatorRouting, MalformedRequestFiresNoRetune) {
  // A request the service rejects trains nothing: validation runs before
  // an unmatched operator fires its family retune.  The same operator
  // under a valid request does fire it, so each rejected request below
  // would otherwise have started one.
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  std::atomic<int> retunes{0};
  service.enable_operator_routing([&](OperatorFamily family) {
    retunes.fetch_add(1, std::memory_order_relaxed);
    return handmade(level, to_string(family), grid::Coarsening::kRap);
  });
  const grid::StencilOp jump =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  Rng rng(13);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest deep;
  deep.accuracy_index = 99;
  SolveRequest nan_target;
  nan_target.target_accuracy = std::numeric_limits<double>::quiet_NaN();
  SolveRequest inf_target;
  inf_target.target_accuracy = std::numeric_limits<double>::infinity();
  for (const SolveRequest& bad :
       {SolveRequest{}, deep, nan_target, inf_target}) {
    Grid2D x = problem.x0;
    EXPECT_THROW(service.solve_op(jump, x, problem.b, bad), ConfigError);
  }
  // A finite target below 1 and an iterate of the wrong side are the
  // solver's InvalidArgument, raised before the binding.
  SolveRequest sub_unit;
  sub_unit.target_accuracy = 0.5;
  Grid2D x_sub = problem.x0;
  EXPECT_THROW(service.solve_op(jump, x_sub, problem.b, sub_unit),
               InvalidArgument);
  SolveRequest valid_target;
  valid_target.target_accuracy = 10.0;
  Grid2D x_wide(size_of_level(level + 1), 0.0);
  EXPECT_THROW(service.solve_op(jump, x_wide, problem.b, valid_target),
               InvalidArgument);
  EXPECT_EQ(service.stats().failures, 6);
  EXPECT_EQ(service.stats().family_retunes, 0);
  EXPECT_EQ(retunes.load(), 0);

  SolveRequest valid;
  valid.target_accuracy = 10.0;
  Grid2D x = problem.x0;
  service.solve_op(jump, x, problem.b, valid);
  for (int i = 0; i < 1000 && service.retune_in_progress(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(service.retune_in_progress());
  EXPECT_EQ(service.stats().family_retunes, 1);
  EXPECT_EQ(retunes.load(), 1);
}

TEST(OperatorRouting, AccuracyIndexSelectsServedLadderTarget) {
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  Rng rng(11);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = 2;  // paper ladder: 1e5
  Grid2D x = problem.x0;
  tune::DynamicResult detail;
  const SolveStats stats = service.solve_op(grid::StencilOp::poisson(n), x,
                                            problem.b, request, &detail);
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(detail.residual_reduction, 1e5);
}

TEST(OperatorRouting, PrimaryFamilyRouteDoesNotPinItsGeneration) {
  // A routed binding served by the generation's own config must share the
  // config, not the generation: otherwise the generation's cache owns the
  // generation, and no install() + trim() ever reclaims it.
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  Rng rng(13);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 1e3;
  Grid2D x = problem.x0;
  tune::DynamicResult detail;
  service.solve_op(grid::StencilOp::poisson(n), x, problem.b, request,
                   &detail);
  ASSERT_EQ(detail.final_family, "poisson");
  EXPECT_GT(service.stats().session_bytes, 0u);  // the binding is counted
  service.install(handmade(level, "poisson", grid::Coarsening::kAverage));
  service.trim();
  EXPECT_EQ(service.stats().retired_generations, 0u);
  EXPECT_EQ(service.stats().session_bytes, 0u);  // gen 2 holds nothing yet
}

TEST(OperatorRouting, FamilyExtensionsSurviveInstall) {
  // install() replaces the primary tables; family extensions installed
  // through install_family must carry into the fresh generation, since
  // the once-per-family retune guard never fires for them again.
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(engine(),
                       handmade(level, "jump", grid::Coarsening::kRap));
  service.install_family(
      handmade(level, "aniso-t45", grid::Coarsening::kRap));
  const grid::StencilOp t45 = make_operator(n, OperatorFamily::kAnisoTheta45);
  Rng rng(17);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 10.0;
  Grid2D before = problem.x0;
  tune::DynamicResult routed;
  service.solve_op(t45, before, problem.b, request, &routed);
  ASSERT_FALSE(routed.variants.empty());
  ASSERT_EQ(routed.variants.front().family, "aniso-t45");

  service.install(handmade(level, "jump", grid::Coarsening::kRap));
  Grid2D after = problem.x0;
  service.solve_op(t45, after, problem.b, request, &routed);
  ASSERT_FALSE(routed.variants.empty());
  EXPECT_EQ(routed.variants.front().family, "aniso-t45");
  EXPECT_TRUE(bitwise_equal(before, after));
}

TEST(OperatorRouting, InstalledConfigSupersedesItsFamilyExtension) {
  // An extension for the installed config's own family is dropped: the
  // install is newer, and its tables (not the extension's) serve.
  const int level = 4;
  const int n = size_of_level(level);
  SolveService service(
      engine(), handmade(level, "poisson", grid::Coarsening::kAverage));
  service.install_family(handmade(level - 1, "jump", grid::Coarsening::kRap));
  service.install(handmade(level, "jump", grid::Coarsening::kRap));
  // The level-3 extension could not cover n; the installed level-4 jump
  // tables do, so the jump operator is served by its own family.
  const grid::StencilOp jump =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  Rng rng(19);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.target_accuracy = 10.0;
  Grid2D x = problem.x0;
  tune::DynamicResult routed;
  service.solve_op(jump, x, problem.b, request, &routed);
  ASSERT_FALSE(routed.variants.empty());
  EXPECT_EQ(routed.variants.front().family, "jump");
}

}  // namespace
}  // namespace pbmg
