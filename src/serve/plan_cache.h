#ifndef MATOPT_SERVE_PLAN_CACHE_H_
#define MATOPT_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph/graph.h"
#include "core/opt/optimizer.h"
#include "serve/fingerprint.h"

namespace matopt {
namespace serve {

/// One cached optimization outcome: the winning logical DAG (possibly the
/// product of a rewrite chain), its physical plan, and the provenance the
/// serving layer replays into responses. Entries are immutable after
/// insertion and handed out by shared_ptr, so a hit never copies the plan
/// and eviction never invalidates a response in flight.
struct CachedPlan {
  GraphKey key;
  /// The graph `plan.annotation` indexes (execute THIS graph, not the
  /// request's, when `rewritten` is true).
  ComputeGraph graph;
  PlanResult plan;

  // Rewrite provenance (mirrors RewrittenPlan; strings so responses can
  // replay it without re-running the rewriter).
  bool rewritten = false;
  bool exact = true;
  bool budget_hit = false;
  int candidates_considered = 1;
  double baseline_cost = 0.0;
  std::vector<std::string> chain;
  /// request vertex id -> `graph` vertex id (identity when !rewritten).
  std::vector<int> vertex_map;

  /// Wall-clock the cold search paid; hits bank this as amortized savings.
  double cold_opt_seconds = 0.0;
};

/// Monotonic counters of one cache (and, aggregated, of the service).
/// Snapshot-consistent under the shard mutexes.
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t inserts = 0;
  int64_t param_hits = 0;        // dimension-only reuse served sans search
  int64_t param_validations = 0; // reuse envelope checked vs a fresh search
  int64_t param_rejects = 0;     // envelope or validation refused the reuse
  /// Sum of cold_opt_seconds over every hit and param hit: the search
  /// latency the cache amortized away.
  double opt_seconds_saved = 0.0;

  PlanCacheStats& operator+=(const PlanCacheStats& other);
};

/// Bounded, sharded LRU cache of optimization outcomes keyed by the exact
/// canonical fingerprint, with a parameterized side-index from the
/// dimension-free fingerprint to its most recent exact entry (DESIGN.md
/// §17). Thread-safe: each shard takes one mutex per operation; keys are
/// pre-mixed hashes so shard selection is their low bits.
class PlanCache {
 public:
  /// `capacity` bounds the *total* entry count across shards; each shard
  /// holds at most ceil(capacity / num_shards) entries (LRU-evicted).
  explicit PlanCache(int capacity = 64, int num_shards = 8);

  /// Exact-key lookup. Returns nullptr on miss. Counts a hit (and banks
  /// the entry's cold_opt_seconds) on success, a miss otherwise.
  std::shared_ptr<const CachedPlan> Lookup(const GraphKey& key);

  /// Parameterized lookup: the most recent entry sharing `key.param` but
  /// not `key.exact` — a dimension-only variant donor. Does not count
  /// hit/miss (the service decides the outcome after envelope checks).
  std::shared_ptr<const CachedPlan> LookupParam(const GraphKey& key);

  /// True when `(param, shape_bucket)` passed an envelope validation and
  /// dimension-only variants in the bucket may skip the fresh search.
  bool IsBucketValidated(const GraphKey& key) const;

  /// Records the outcome of an envelope validation for `(param, bucket)`.
  void MarkBucketValidated(const GraphKey& key);
  /// Drops every validation for `key.param` (a reuse went stale — MO090)
  /// and forgets the param-index donor so later variants re-search.
  void InvalidateParam(const GraphKey& key);

  /// Inserts (or replaces) the entry under `entry->key.exact`, updates the
  /// param index, and evicts the shard's LRU tail past its per-shard cap.
  void Insert(std::shared_ptr<const CachedPlan> entry);

  /// Counts a hit served without a lookup: a request that waited on
  /// another request's search of the same key.
  void CountHit(double opt_seconds_saved);

  /// Counts a served param-reuse against the stats (outside Insert so the
  /// service can account reuse that bypassed insertion entirely).
  void CountParamHit(double opt_seconds_saved);
  void CountParamValidation(bool accepted);

  int64_t size() const;
  int capacity() const { return capacity_; }
  PlanCacheStats Stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // LRU list: front = most recent. Map values point into the list.
    std::list<std::shared_ptr<const CachedPlan>> lru;
    std::unordered_map<
        uint64_t, std::list<std::shared_ptr<const CachedPlan>>::iterator>
        entries;
    // param fingerprint -> exact key of its most recent entry.
    std::unordered_map<uint64_t, uint64_t> param_index;
    // (param, shape_bucket) pairs that passed envelope validation.
    std::set<std::pair<uint64_t, uint64_t>> validated_buckets;
    PlanCacheStats stats;
  };

  Shard& ShardFor(uint64_t param_fp) { return shards_[ShardIndex(param_fp)]; }
  const Shard& ShardFor(uint64_t param_fp) const {
    return shards_[ShardIndex(param_fp)];
  }
  size_t ShardIndex(uint64_t param_fp) const {
    return static_cast<size_t>(param_fp) % shards_.size();
  }

  int capacity_;
  int per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace serve
}  // namespace matopt

#endif  // MATOPT_SERVE_PLAN_CACHE_H_
