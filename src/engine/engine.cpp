#include "engine/engine.h"

#include "obs/metrics.h"
#include "tune/config_cache.h"
#include "tune/trainer.h"

namespace pbmg {

Engine::Engine(EngineOptions options)
    : relax_(options.relax),
      cache_dir_(options.cache_dir.empty() ? tune::default_cache_dir()
                                           : options.cache_dir),
      scheduler_(options.profile) {
  solvers::validate_relax_tunables(relax_);
}

tune::TunedConfig Engine::tuned_config(const tune::TrainerOptions& options,
                                       int heuristic_sub_accuracy,
                                       bool* from_cache) {
  return tune::load_or_train(options, *this, cache_dir_,
                             heuristic_sub_accuracy, from_cache);
}

void Engine::publish_metrics(obs::MetricsRegistry& registry) {
  registry.gauge("pbmg_scheduler_steals")
      .set(static_cast<double>(scheduler_.steal_count()));
  registry.gauge("pbmg_scratch_hit_rate").set(scratch_.stats().hit_rate());
}

}  // namespace pbmg
