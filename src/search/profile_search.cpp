#include "search/profile_search.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "engine/engine.h"
#include "grid/level.h"
#include "solvers/line_relax.h"
#include "solvers/multigrid.h"
#include "support/error.h"
#include "support/timer.h"
#include "tune/accuracy.h"

namespace pbmg::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// First accuracy rung the SOR phase of the workload must reach; matches
/// the bottom of the paper's ladder.
constexpr double kSorPhaseAccuracy = 10.0;

}  // namespace

ParamSpace make_profile_space(const rt::MachineProfile& base,
                              bool include_machine_tunables) {
  ParamSpace space;
  if (include_machine_tunables) {
    for (const rt::ProfileTunable& t : rt::profile_tunables(base)) {
      if (t.log_scale) {
        space.add_log_int(t.name, t.lo, t.hi, t.value);
      } else {
        space.add_int(t.name, t.lo, t.hi, t.value);
      }
    }
  }
  // Relaxation weights from solvers/relax: RECURSE's ω (paper: 1.15) and
  // the scale on ω_opt(N) used by the iterative shortcut.  Ranges stay
  // inside SOR's (0, 2) stability interval and validate_relax_tunables'
  // bounds.
  space.add_float("recurse_omega", 0.6, 1.9, solvers::kRecurseOmega);
  space.add_float("omega_scale", 0.7, 1.3, 1.0);
  // The smoother is a first-class *categorical* choice dimension (like
  // KTT's kernel variants): point red-black SOR or one of the zebra line
  // variants (solvers/line_relax.h).  It belongs to the relaxation group,
  // so a relax_only space still races it — the axis an operator family
  // needs most (aniso1000 is unsolvable without it) must never be pinned
  // by the machine-knob toggle.  Jacobi is excluded, as in the trainer.
  space.add_categorical("smoother",
                        {"point_rb", "line_x", "line_y", "line_zebra_alt"},
                        /*default_index=*/0);
  // Coarse-operator formation is the second algorithmic categorical: the
  // legacy averaged-coefficient ladder versus exact Galerkin R·A·P
  // (grid/stencil_op.h).  Like the smoother it rides in the relaxation
  // group — the rotated-anisotropy families are exactly the scenarios
  // where the averaged ladder misrepresents the operator, so a relax_only
  // search must still be able to flip it.
  space.add_categorical("coarsening", {"avg", "rap"}, /*default_index=*/0);
  // Kernel implementation axes (grid/stencil_op.h KernelPolicy): the
  // lane count the sweeps run their rows at over the coefficient grids
  // (legacy: one lane; packed: simd_width lanes).  Both are bitwise
  // result-invariant — pure instruction/ILP knobs — so the tuner races
  // them like any machine parameter; they sit in the relaxation group
  // because the win is operator-family-dependent (the wide rows pay off
  // most on the 9-point/RAP ladders).  Widths the CPU lacks are clamped
  // at dispatch (clamp_simd_width), also result-invariant.
  space.add_categorical("layout", {"legacy", "packed"}, /*default_index=*/0);
  space.add_categorical("simd_width", {"1", "2", "4"}, /*default_index=*/0);
  return space;
}

RuntimeParams decode_runtime_params(const ParamSpace& space,
                                    const Candidate& candidate,
                                    const rt::MachineProfile& base) {
  RuntimeParams params;
  params.profile = base;
  for (const rt::ProfileTunable& t : rt::profile_tunables(base)) {
    // A relax-only space carries no machine dimensions; those tunables
    // keep their base values.
    const bool searched = std::any_of(
        space.dimensions().begin(), space.dimensions().end(),
        [&](const auto& dim) { return dim.name == t.name; });
    if (!searched) continue;
    params.profile =
        rt::with_tunable(params.profile, t.name,
                         space.int_value(candidate, t.name));
  }
  params.relax.recurse_omega = space.float_value(candidate, "recurse_omega");
  params.relax.omega_scale = space.float_value(candidate, "omega_scale");
  params.smoother = solvers::parse_relax_kind(
      space.categorical_value(candidate, "smoother"));
  params.coarsening = grid::parse_coarsening(
      space.categorical_value(candidate, "coarsening"));
  params.relax.kernels.layout = grid::parse_stencil_layout(
      space.categorical_value(candidate, "layout"));
  params.relax.kernels.simd_width =
      std::stoi(space.categorical_value(candidate, "simd_width"));
  return params;
}

Json SearchedProfile::to_json() const {
  // JSON cannot represent infinities (a failed default candidate reports
  // +inf); clamp to a huge finite sentinel so the document stays loadable.
  const auto finite_cap = [](double v) {
    if (std::isnan(v)) return 0.0;
    return std::isfinite(v) ? v : 1e300;
  };
  Json j = Json::object();
  j.set("profile", rt::profile_to_json(profile));
  j.set("recurse_omega", relax.recurse_omega);
  j.set("omega_scale", relax.omega_scale);
  j.set("layout", grid::to_string(relax.kernels.layout));
  j.set("simd_width", std::int64_t{relax.kernels.simd_width});
  j.set("default_seconds", finite_cap(default_seconds));
  j.set("searched_seconds", finite_cap(searched_seconds));
  j.set("evaluations", std::int64_t{evaluations});
  j.set("seed", static_cast<std::int64_t>(seed));
  j.set("generations", std::int64_t{generations});
  j.set("population", std::int64_t{population});
  return j;
}

SearchedProfile SearchedProfile::from_json(const Json& json) {
  SearchedProfile out;
  out.profile = rt::profile_from_json(json.at("profile"));
  out.relax.recurse_omega = json.at("recurse_omega").as_double();
  out.relax.omega_scale = json.at("omega_scale").as_double();
  try {
    // Documents from before the kernel-policy axes read as the legacy
    // scalar kernels.  Older documents' "smoother" and "coarsening"
    // fields are ignored.
    out.relax.kernels.layout = grid::parse_stencil_layout(
        json.get("layout", std::string("legacy")));
    out.relax.kernels.simd_width = json.get("simd_width", 1);
    solvers::validate_relax_tunables(out.relax);
  } catch (const InvalidArgument& e) {
    throw ConfigError(std::string("searched profile: ") + e.what());
  }
  out.default_seconds = json.get("default_seconds", 0.0);
  out.searched_seconds = json.get("searched_seconds", 0.0);
  out.evaluations = json.get("evaluations", 0);
  out.seed = static_cast<std::uint64_t>(json.get("seed", std::int64_t{0}));
  out.generations = json.get("generations", 0);
  out.population = json.get("population", 0);
  return out;
}

SearchedProfile search_profile(const ProfileSearchOptions& options) {
  PBMG_CHECK(options.level >= 2 && options.level <= 14,
             "search_profile: level out of range");
  PBMG_CHECK(options.instances >= 1,
             "search_profile: need at least one instance");
  PBMG_CHECK(options.target_accuracy > 1.0,
             "search_profile: target accuracy must exceed 1");

  const ParamSpace space =
      make_profile_space(options.base, !options.relax_only);
  const int n = size_of_level(options.level);

  // The base engine serves instance construction and the (untimed)
  // accuracy oracle; candidate engines are built per evaluation.
  Engine base_engine(options.base);
  rt::Scheduler& base_sched = base_engine.scheduler();
  // The workload's operator: candidates are raced on the same scenario
  // the trained tables will serve (the Poisson fast path reproduces the
  // historical workload bit for bit).
  const grid::StencilOp op = make_operator(n, options.op_family);
  const grid::StencilHierarchy ops(op);
  const grid::StencilHierarchy ops_rap(op, grid::Coarsening::kRap);
  Rng rng(options.seed);
  auto instances =
      tune::make_training_set(op, options.distribution, rng.split(0x5EA7C4),
                              options.instances, base_sched);

  // Workload: what a tuned binary actually spends time in — (a) iterated
  // SOR at the scaled ω_opt to the ladder's first rung, exercising the
  // ω_opt scale and the scheduler's slicing of row sweeps, then (b)
  // reference V-cycles at the candidate's RECURSE ω to target_accuracy,
  // exercising the recursion's fork/join behaviour.  Accuracy checks are
  // oracle lookups and stay untimed, mirroring bench/common's
  // probe-then-time discipline.
  const int max_sweeps = std::max(4 * n, 200);
  // A candidate is a *new Engine* built from its decoded parameters, not
  // a mutation of process-wide state.  The tester runs every instance of
  // one candidate back to back; reuse the candidate's engine across them
  // instead of paying a thread-pool spawn/teardown per
  // (candidate, instance) pair.
  std::string cached_fingerprint;
  std::unique_ptr<Engine> cached_engine;
  const auto objective = [&](const Candidate& candidate,
                             const tune::TrainingInstance& inst,
                             const Deadline& deadline) -> double {
    const RuntimeParams params =
        decode_runtime_params(space, candidate, options.base);
    const std::string fingerprint = space.fingerprint(candidate);
    if (!cached_engine || fingerprint != cached_fingerprint) {
      cached_engine = std::make_unique<Engine>(params.profile, params.relax);
      cached_fingerprint = fingerprint;
    }
    Engine& engine = *cached_engine;
    rt::Scheduler& sched = engine.scheduler();
    const double sor_omega =
        solvers::scaled_omega_opt(n, params.relax.omega_scale);
    // The candidate's smoother drives both workload phases: the iterative
    // shortcut becomes iterated line relaxation when a line variant is
    // selected (point SOR at the scaled ω_opt otherwise), and the V-cycle
    // phase relaxes with it inside the recursion.
    const solvers::RelaxKind smoother = params.smoother;
    Grid2D x(n, 0.0);
    x.copy_from(inst.problem.x0);
    double elapsed = 0.0;

    bool reached = false;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
      const double t0 = now_seconds();
      if (solvers::is_line_relax(smoother)) {
        solvers::line_relax_sweep(op, x, inst.problem.b, smoother, sched,
                                  engine.scratch(), params.relax.kernels);
      } else {
        solvers::sor_sweep(op, x, inst.problem.b, sor_omega, sched,
                           params.relax.kernels);
      }
      elapsed += now_seconds() - t0;
      if (deadline.expired()) return kInf;
      if (tune::accuracy_of(inst, x, base_sched) >= kSorPhaseAccuracy) {
        reached = true;
        break;
      }
    }
    if (!reached) return kInf;

    solvers::VCycleOptions vopts;
    vopts.omega = params.relax.recurse_omega;
    vopts.relaxation = smoother;
    vopts.kernels = params.relax.kernels;
    // The candidate's coarsening picks which prebuilt ladder the V-cycle
    // phase corrects against (both share the fine operator, so the SOR
    // phase above is unaffected).
    const grid::StencilHierarchy& vops_ladder =
        params.coarsening == grid::Coarsening::kRap ? ops_rap : ops;
    for (int cycle = 0; cycle < options.max_cycles; ++cycle) {
      const double t0 = now_seconds();
      solvers::vcycle(vops_ladder, x, inst.problem.b, vopts, sched,
                      engine.direct(), engine.scratch());
      elapsed += now_seconds() - t0;
      if (deadline.expired()) return kInf;
      if (tune::accuracy_of(inst, x, base_sched) >=
          options.target_accuracy) {
        return elapsed;
      }
    }
    return kInf;  // never converged: the candidate is unusable
  };

  CandidateTester tester(space, objective, std::move(instances));
  PopulationOptions popts = options.population;
  popts.seed = options.seed;
  if (!popts.log && options.log) popts.log = options.log;
  PopulationSearch engine(space, tester, popts);
  const SearchResult result = engine.run();

  const RuntimeParams best =
      decode_runtime_params(space, result.best.candidate, options.base);
  SearchedProfile out;
  out.profile = best.profile;
  out.profile.name = options.base.name + "+searched";
  out.relax = best.relax;
  out.default_seconds = result.default_total_seconds;
  out.searched_seconds = result.best.total_seconds;
  out.evaluations = result.evaluations;
  out.seed = options.seed;
  out.generations = popts.generations;
  out.population = popts.population;
  if (options.log) {
    std::ostringstream oss;
    oss << "[search] done: " << space.describe(result.best.candidate)
        << "  workload " << out.default_seconds * 1e3 << " -> "
        << out.searched_seconds * 1e3 << " ms over " << out.evaluations
        << " evaluations";
    options.log(oss.str());
  }
  return out;
}

}  // namespace pbmg::search
