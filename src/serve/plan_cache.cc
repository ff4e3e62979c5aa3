#include "serve/plan_cache.h"

#include <algorithm>

namespace matopt {
namespace serve {

PlanCacheStats& PlanCacheStats::operator+=(const PlanCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  inserts += other.inserts;
  param_hits += other.param_hits;
  param_validations += other.param_validations;
  param_rejects += other.param_rejects;
  opt_seconds_saved += other.opt_seconds_saved;
  return *this;
}

PlanCache::PlanCache(int capacity, int num_shards)
    : capacity_(std::max(1, capacity)),
      shards_(std::max(1, std::min(num_shards, std::max(1, capacity)))) {
  per_shard_capacity_ =
      static_cast<int>((capacity_ + shards_.size() - 1) / shards_.size());
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const GraphKey& key) {
  Shard& shard = ShardFor(key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key.exact);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  // Move to front (most recently used).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  shard.stats.opt_seconds_saved += (*it->second)->cold_opt_seconds;
  return *it->second;
}

std::shared_ptr<const CachedPlan> PlanCache::LookupParam(const GraphKey& key) {
  Shard& shard = ShardFor(key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto param_it = shard.param_index.find(key.param);
  if (param_it == shard.param_index.end()) return nullptr;
  if (param_it->second == key.exact) return nullptr;  // same shapes: not a
                                                      // dimension-only variant
  auto it = shard.entries.find(param_it->second);
  if (it == shard.entries.end()) return nullptr;  // donor was evicted
  return *it->second;
}

bool PlanCache::IsBucketValidated(const GraphKey& key) const {
  const Shard& shard = ShardFor(key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.validated_buckets.count({key.param, key.shape_bucket}) > 0;
}

void PlanCache::MarkBucketValidated(const GraphKey& key) {
  Shard& shard = ShardFor(key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.validated_buckets.insert({key.param, key.shape_bucket});
}

void PlanCache::InvalidateParam(const GraphKey& key) {
  Shard& shard = ShardFor(key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.validated_buckets.lower_bound({key.param, 0});
  while (it != shard.validated_buckets.end() && it->first == key.param) {
    it = shard.validated_buckets.erase(it);
  }
  shard.param_index.erase(key.param);
}

void PlanCache::Insert(std::shared_ptr<const CachedPlan> entry) {
  Shard& shard = ShardFor(entry->key.param);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint64_t exact = entry->key.exact;
  const uint64_t param = entry->key.param;
  auto it = shard.entries.find(exact);
  if (it != shard.entries.end()) {
    // Replace in place (same key raced in twice; last writer wins) and
    // refresh recency.
    *it->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(std::move(entry));
    shard.entries.emplace(exact, shard.lru.begin());
    ++shard.stats.inserts;
    while (static_cast<int>(shard.lru.size()) > per_shard_capacity_) {
      const std::shared_ptr<const CachedPlan>& victim = shard.lru.back();
      if (shard.param_index.count(victim->key.param) > 0 &&
          shard.param_index[victim->key.param] == victim->key.exact) {
        shard.param_index.erase(victim->key.param);
      }
      shard.entries.erase(victim->key.exact);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
  }
  shard.param_index[param] = exact;
}

void PlanCache::CountHit(double opt_seconds_saved) {
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.hits;
  shard.stats.opt_seconds_saved += opt_seconds_saved;
}

void PlanCache::CountParamHit(double opt_seconds_saved) {
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.param_hits;
  shard.stats.opt_seconds_saved += opt_seconds_saved;
}

void PlanCache::CountParamValidation(bool accepted) {
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.param_validations;
  if (!accepted) ++shard.stats.param_rejects;
}

int64_t PlanCache::size() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.lru.size());
  }
  return total;
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.stats;
  }
  return total;
}

}  // namespace serve
}  // namespace matopt
