#include "serve/plan_cache.h"

#include <utility>

#include "exec/oracle.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace lqolab::serve {

namespace {

/// Mixes every configuration knob the planner reads (plus the model
/// version) into `key`; shared by the per-query and per-template keys so
/// both invalidate identically on config changes and model swaps.
uint64_t MixConfig(uint64_t key, const engine::DbConfig& config,
                   uint64_t model_version) {
  // Pack the boolean planner switches into one word; mix the numeric knobs
  // in separately. DbConfig::name is display-only and deliberately ignored,
  // as are the knobs the planner never reads (adaptive_replan and its
  // thresholds change only how a plan runs, never the plan itself).
  uint64_t flags = 0;
  const bool bools[] = {
      config.geqo,           config.enable_seqscan,  config.enable_indexscan,
      config.enable_bitmapscan, config.enable_tidscan, config.enable_nestloop,
      config.enable_hashjoin, config.enable_mergejoin, config.enable_bushy,
  };
  for (const bool b : bools) flags = (flags << 1) | (b ? 1u : 0u);

  key = util::MixSeed(key, flags);
  key = util::MixSeed(key, static_cast<uint64_t>(config.geqo_threshold),
                      static_cast<uint64_t>(config.join_collapse_limit));
  key = util::MixSeed(key, config.geqo_seed);
  key = util::MixSeed(key, static_cast<uint64_t>(config.work_mem_mb),
                      static_cast<uint64_t>(config.shared_buffers_mb));
  key = util::MixSeed(key, static_cast<uint64_t>(config.effective_cache_size_mb),
                      static_cast<uint64_t>(config.ram_mb));
  key = util::MixSeed(key, static_cast<uint64_t>(config.estimator_mode),
                      static_cast<uint64_t>(config.join_selectivity_scale *
                                            1024.0));
  key = util::MixSeed(key, static_cast<uint64_t>(config.cost_model_backend));
  return util::MixSeed(key, model_version);
}

}  // namespace

uint64_t PlanCacheKey(const query::Query& q, const engine::DbConfig& config,
                      uint64_t model_version) {
  return MixConfig(exec::QueryFingerprint(q), config, model_version);
}

uint64_t PlanCacheKeyForTemplate(uint64_t template_fingerprint,
                                 const engine::DbConfig& config,
                                 uint64_t model_version) {
  // An extra mix step separates the template-key domain from the
  // per-query domain: a raw QueryFingerprint equal to a template
  // fingerprint must not alias the same cache slot.
  return MixConfig(util::MixSeed(template_fingerprint, 0x5ca1ab1e5ca1ab1eULL),
                   config, model_version);
}

PlanCache::PlanCache(const PlanCacheOptions& options)
    : capacity_per_shard_(options.capacity_per_shard) {
  LQOLAB_CHECK_GT(options.shards, 0);
  LQOLAB_CHECK_GE(options.capacity_per_shard, 0);
  shards_.reserve(static_cast<size_t>(options.shards));
  for (int32_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(capacity_per_shard_));
  }
}

PlanCache::Shard& PlanCache::ShardFor(uint64_t key) {
  // The low bits key the LRU hash map; stripe on an independent mix so the
  // shard index and the in-shard distribution don't correlate.
  const uint64_t h = util::MixSeed(key, 0x9e3779b97f4a7c15ULL);
  return *shards_[static_cast<size_t>(h % shards_.size())];
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(uint64_t key) {
  if (!enabled()) {
    obs::Count(obs::Counter::kPlanCacheMisses);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.plans.find(key);
  if (it == shard.plans.end()) {
    obs::Count(obs::Counter::kPlanCacheMisses);
    return nullptr;
  }
  // Present in the payload map implies present in the LRU, so this Touch is
  // a pure recency refresh, never an insert.
  shard.lru.Touch(key);
  obs::Count(obs::Counter::kPlanCacheHits);
  return it->second;
}

void PlanCache::Insert(uint64_t key, std::shared_ptr<const CachedPlan> plan) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const int64_t evictions_before = shard.lru.evictions();
  uint64_t evicted_key = 0;
  const bool present = shard.lru.Touch(key, &evicted_key);
  if (!present && shard.lru.evictions() > evictions_before) {
    // Touch inserted `key` and pushed out the shard's LRU entry; drop the
    // matching payload.
    shard.plans.erase(evicted_key);
    obs::Count(obs::Counter::kPlanCacheEvictions);
  }
  shard.plans[key] = std::move(plan);
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    obs::Count(obs::Counter::kPlanCacheEvictions,
               static_cast<int64_t>(shard->plans.size()));
    shard->lru.Clear();
    shard->plans.clear();
  }
}

int64_t PlanCache::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += static_cast<int64_t>(shard->plans.size());
  }
  return total;
}

int64_t PlanCache::evictions() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.evictions();
  }
  return total;
}

}  // namespace lqolab::serve
