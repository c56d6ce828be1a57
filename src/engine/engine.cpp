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
  registry.gauge("pbmg_scheduler_threads")
      .set(static_cast<double>(profile().threads));
  registry.gauge("pbmg_scheduler_steals")
      .set(static_cast<double>(scheduler_.steal_count()));
  const grid::ScratchPool::Stats pool = scratch_.stats();
  registry.gauge("pbmg_scratch_trims").set(static_cast<double>(pool.trims));
  registry.gauge("pbmg_scratch_pooled_bytes")
      .set(static_cast<double>(pool.pooled_bytes));
  registry.gauge("pbmg_scratch_high_water_bytes")
      .set(static_cast<double>(pool.high_water_bytes));
  registry.gauge("pbmg_scratch_hit_rate").set(pool.hit_rate());
}

}  // namespace pbmg
