#include "tune/baseline.h"

#include <algorithm>
#include <cstdint>

#include "engine/solve_session.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/rng.h"
#include "tune/accuracy.h"

namespace pbmg::tune {

namespace {

/// Seed of the RHS draw for the timed instances.
constexpr std::uint64_t kBaselineSeed = 20091114;

}  // namespace

obs::LatencyBaseline measure_latency_baseline(Engine& engine,
                                              const TunedConfig& config,
                                              const BaselineOptions& options) {
  obs::LatencyBaseline baseline;
  const OperatorFamily family = parse_operator_family(config.op_family);
  const InputDistribution dist =
      config.distribution.empty() ? InputDistribution::kUnbiased
                                  : parse_distribution(config.distribution);
  const int top = options.max_level > 0
                      ? std::min(options.max_level, config.max_level())
                      : config.max_level();
  Rng rng(kBaselineSeed);
  for (int level = std::max(2, options.min_level); level <= top; ++level) {
    const int n = size_of_level(level);
    // A real session, so the measurement includes exactly what serving
    // includes (prewarmed hierarchies, packed layouts) and excludes what
    // serving excludes (first-touch allocation bursts).
    SolveSession session(engine, config, make_operator(n, family));
    Rng level_rng = rng.split(static_cast<std::uint64_t>(level));
    const TrainingInstance inst = make_training_instance(
        session.op(), dist, level_rng, engine.scheduler());
    for (int acc = 0; acc < config.accuracy_count(); ++acc) {
      // V-cycle and FMG land in separate baseline keys: one histogram
      // holding both is bimodal, and the watcher's KS test would read
      // the mode mixture itself as drift (or use it to mask real drift).
      obs::Histogram hist;
      obs::Histogram hist_fmg;
      Grid2D x = inst.problem.x0;
      session.solve_v(x, inst.problem.b, acc);  // untimed warm-up
      for (int s = 0; s < options.samples; ++s) {
        x.copy_from(inst.problem.x0);
        hist.record(session.solve_v(x, inst.problem.b, acc).seconds);
        if (options.include_fmg) {
          x.copy_from(inst.problem.x0);
          hist_fmg.record(session.solve_fmg(x, inst.problem.b, acc).seconds);
        }
      }
      baseline.set(n, acc, hist.snapshot());
      if (options.include_fmg) {
        baseline.set(n, acc, hist_fmg.snapshot(), /*fmg=*/true);
      }
    }
  }
  return baseline;
}

}  // namespace pbmg::tune
