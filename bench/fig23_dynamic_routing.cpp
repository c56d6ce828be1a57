// "Figure 23" (beyond the paper): operator-aware dynamic serving.  The
// paper's §6 future work sketches algorithms that "switch between tuned
// versions of themselves" based on features of the input; fig18 showed
// the payoff of per-family tables measured offline.  This bench closes
// the serving loop: a mixed stream of operators — in-family (Poisson,
// exactly what the service was tuned for), near-family (a mildly varying
// smooth coefficient, close enough to serve from the Poisson tables),
// and novel (a high-contrast jump operator no generation has tables
// for) — flows through SolveService::solve_op, which fingerprints each
// operator, routes it to the nearest tuned family, and escalates across
// families when the input underperforms.  The first novel request fires
// a once-per-family background retune; its tables install as a
// generation *extension* while serving continues, and post-install the
// same operators reroute onto the fresh family.  Reported per phase:
// route outcomes (matched / escalated / retune), escalations, and the
// routed latency against an *oracle* — a DynamicSolver bound directly to
// the retuned jump tables — at equal achieved accuracy, plus the
// bit-stability of the in-family route across the install.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.h"
#include "engine/solve_service.h"
#include "grid/fingerprint.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/rng.h"
#include "tune/config_cache.h"
#include "tune/dynamic.h"
#include "tune/trainer.h"

namespace {

using namespace pbmg;
using namespace pbmg::bench;

constexpr double kTarget = 1e5;  ///< equal-accuracy bar for every arm

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::int64_t counter_or_zero(const obs::RegistrySnapshot& snapshot,
                             const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// One operator kind in the mixed stream.
struct StreamArm {
  std::string name;            ///< row label
  grid::StencilOp op;
  std::vector<double> pre_seconds;   ///< routed latencies before install
  std::vector<double> post_seconds;  ///< routed latencies after install
  std::int64_t solves = 0;
  std::int64_t unconverged = 0;
  std::int64_t escalations = 0;
  std::int64_t family_switches = 0;
  std::string final_family;    ///< of the last routed solve
};

int main_impl(int argc, const char* const* argv) {
  auto maybe = parse_settings(
      argc, argv, "fig23_dynamic_routing",
      "Fig 23: fingerprint routing, cross-family escalation, and "
      "background family retune at equal achieved accuracy");
  if (!maybe) return 0;
  const Settings settings = *maybe;
  const auto dist = InputDistribution::kUnbiased;
  const int top_level = std::min(settings.max_level, 6);
  const int n = size_of_level(top_level);

  Engine engine(engine_options(settings, rt::MachineProfile{}));
  track_engine("fig23", engine);
  const std::string cache_dir = engine_options(settings,
                                               rt::MachineProfile{}).cache_dir;
  const auto config =
      get_tuned_config(settings, engine, dist, top_level, /*train_fmg=*/false);

  SolveService service(engine, config);
  // The background family retune: the paper's DP, trained on the
  // requested family's own coefficient hierarchy (fig18's "retuned" arm),
  // through the disk cache so smoke re-runs skip the training cost.
  const auto family_options = [&](OperatorFamily family) {
    tune::TrainerOptions options =
        trainer_options(settings, dist, top_level, /*train_fmg=*/false);
    options.op_family = family;
    return options;
  };
  service.enable_operator_routing([&](OperatorFamily family) {
    progress("fig23: background retune for family '" + to_string(family) +
             "' started");
    return tune::load_or_train(
        family_options(family), engine,
        cache_dir.empty() ? tune::default_cache_dir() : cache_dir);
  });

  // The mixed operator stream.  Distances to the Poisson reference tell
  // the routing story in advance: ~0 (in-family), small (near-family,
  // served matched by the Poisson tables), and far beyond the threshold
  // (novel — served anyway, but the real family trains in the
  // background).
  std::vector<StreamArm> arms;
  arms.push_back({"poisson (in-family)", grid::StencilOp::poisson(n),
                  {}, {}, 0, 0, 0, 0, ""});
  arms.push_back({"smooth (near-family)",
                  grid::StencilOp::from_coefficient(
                      n,
                      [](double x, double y) {
                        return 1.0 + 0.15 * std::sin(6.283185307179586 * x) *
                                         std::sin(6.283185307179586 * y);
                      }),
                  {}, {}, 0, 0, 0, 0, ""});
  arms.push_back({"jump (novel)",
                  make_operator(n, OperatorFamily::kJumpCoefficient),
                  {}, {}, 0, 0, 0, 0, ""});
  for (const StreamArm& arm : arms) {
    const grid::FamilyMatch match =
        grid::nearest_family(grid::fingerprint(arm.op));
    progress("fig23: " + arm.name + " -> nearest family '" +
             to_string(match.family) + "' at distance " +
             format_double(match.distance, 3));
  }

  Rng rng(settings.eval_seed);
  const auto problem = make_problem(n, dist, rng);
  SolveRequest request;
  request.target_accuracy = kTarget;

  const auto route_once = [&](StreamArm& arm, std::vector<double>& bucket) {
    Grid2D x(n, 0.0);
    x.copy_from(problem.x0);
    tune::DynamicResult detail;
    const SolveStats stats =
        service.solve_op(arm.op, x, problem.b, request, &detail);
    bucket.push_back(stats.seconds);
    ++arm.solves;
    if (!stats.converged) ++arm.unconverged;
    arm.escalations += detail.escalations;
    arm.family_switches += detail.family_switches;
    arm.final_family = detail.final_family;
    return x;
  };

  // Phase 1 — mixed stream against the Poisson-only generation.  The
  // first novel request fires the background retune; serving continues
  // on the stand-in tables meanwhile.
  const int per_arm = std::max(4, settings.trials);
  Grid2D golden_poisson(n, 0.0);
  for (int i = 0; i < per_arm; ++i) {
    for (StreamArm& arm : arms) {
      Grid2D x = route_once(arm, arm.pre_seconds);
      if (&arm == &arms.front() && i == 0) golden_poisson.copy_from(x);
    }
  }

  // Let the retune land (bounded wait; the smoke run trains one family
  // at laptop scale).
  for (int i = 0; i < 6000 && service.retune_in_progress(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto mid_stats = service.stats();
  progress("fig23: family retunes launched: " +
           std::to_string(mid_stats.family_retunes));

  // Phase 2 — same stream post-install: the novel operator now routes to
  // its own family's tables (matched, no cross-family escalation), and
  // the in-family route must reproduce its pre-install bits exactly.
  bool poisson_bit_stable = true;
  for (int i = 0; i < per_arm; ++i) {
    for (StreamArm& arm : arms) {
      Grid2D x = route_once(arm, arm.post_seconds);
      if (&arm == &arms.front()) {
        poisson_bit_stable =
            poisson_bit_stable && bitwise_equal(x, golden_poisson);
      }
    }
  }

  // Oracle arm: a DynamicSolver bound directly to the retuned jump
  // tables — what a clairvoyant dispatcher would have used from request
  // one.  Equal accuracy bar, same instance, untimed residual audits.
  const tune::TunedConfig jump_config = tune::load_or_train(
      family_options(OperatorFamily::kJumpCoefficient), engine,
      cache_dir.empty() ? tune::default_cache_dir() : cache_dir);
  const tune::DynamicSolver oracle(
      jump_config, make_operator(n, OperatorFamily::kJumpCoefficient),
      engine.scheduler(), engine.direct(), engine.scratch(),
      engine.relax());
  std::vector<double> oracle_seconds;
  for (int i = 0; i < per_arm; ++i) {
    Grid2D x(n, 0.0);
    x.copy_from(problem.x0);
    const auto result = oracle.solve(x, problem.b, kTarget);
    oracle_seconds.push_back(result.seconds);
  }

  const auto snapshot = service.metrics_snapshot();
  const auto stats = service.stats();
  const double jump_post = median_of(arms[2].post_seconds);
  const double oracle_median = median_of(oracle_seconds);
  const double vs_oracle =
      oracle_median > 0.0 ? jump_post / oracle_median : std::nan("");

  TextTable table({"operator", "solves", "pre-install med (s)",
                   "post-install med (s)", "escalations", "switches",
                   "final family"});
  Json rows = Json::array();
  for (const StreamArm& arm : arms) {
    table.add_row({arm.name, std::to_string(arm.solves),
                   format_double(median_of(arm.pre_seconds)),
                   format_double(median_of(arm.post_seconds)),
                   std::to_string(arm.escalations),
                   std::to_string(arm.family_switches), arm.final_family});
    Json row = Json::object();
    row.set("operator", arm.name);
    row.set("solves", arm.solves);
    row.set("unconverged", arm.unconverged);
    row.set("pre_install_median_s", median_of(arm.pre_seconds));
    row.set("post_install_median_s", median_of(arm.post_seconds));
    row.set("escalations", arm.escalations);
    row.set("family_switches", arm.family_switches);
    row.set("final_family", arm.final_family);
    rows.push_back(std::move(row));
  }
  table.add_row({"jump oracle (direct bind)",
                 std::to_string(oracle_seconds.size()), "-",
                 format_double(oracle_median), "-", "-", "jump"});

  Json doc = Json::object();
  doc.set("bench", "fig23_dynamic_routing");
  doc.set("n", std::int64_t{n});
  doc.set("target_accuracy", kTarget);
  doc.set("arms", std::move(rows));
  doc.set("oracle_median_s", oracle_median);
  // Acceptance: routed novel-operator latency post-install within noise
  // of the oracle (same tables, same prewarmed binding — the routing
  // layer's overhead is one cached map lookup).
  doc.set("post_install_over_oracle", vs_oracle);
  doc.set("family_retunes", stats.family_retunes);
  doc.set("generation", stats.generation);  // extension, not a swap
  doc.set("routed_requests", stats.routed_requests);
  doc.set("poisson_bit_stable_across_install", poisson_bit_stable);
  for (const char* family : {"poisson", "smooth", "jump"}) {
    for (const char* outcome : {"matched", "escalated", "retune"}) {
      const std::string name = std::string("pbmg_route_total{family=\"") +
                               family + "\",outcome=\"" + outcome + "\"}";
      doc.set(std::string(family) + "_" + outcome,
              counter_or_zero(snapshot, name));
    }
  }
  doc.set("service_metrics", obs::to_json(snapshot));
  emit_bench_json(settings, "fig23_dynamic_routing_detail", doc);

  emit_table(
      settings, "fig23_dynamic_routing",
      "Figure 23: operator-aware dynamic serving, N=" + std::to_string(n) +
          ", equal achieved accuracy 10^5 (" +
          std::to_string(stats.family_retunes) +
          " background family retune(s), generation " +
          std::to_string(stats.generation) +
          (poisson_bit_stable ? ", in-family bits stable across install"
                              : ", BIT DIVERGENCE on in-family route") +
          ", routed/oracle " + format_double(vs_oracle, 3) + ")",
      table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return main_impl(argc, argv); }
