#ifndef MATOPT_SERVE_SERVICE_H_
#define MATOPT_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "core/ops/catalog.h"
#include "core/rewrite/rewrite.h"
#include "engine/cluster.h"
#include "engine/exec_stats.h"
#include "serve/plan_cache.h"

namespace matopt {
namespace serve {

/// Per-tenant admission and cost limits. The defaults are permissive; the
/// daemon configures real tenants from its flags.
struct TenantBudget {
  /// Concurrent requests the tenant may have in flight; exceeding it
  /// rejects the request with the dist-style typed budget error
  /// (kOutOfMemory) and an MO092 diagnostic.
  int max_inflight = 16;
  /// Per-request cap on the chosen plan's predicted fused cost (simulated
  /// seconds). Plans over the cap are rejected with kOutOfMemory + MO091
  /// *before* execution — the serving twin of the dist runtime's measured
  /// budget enforcement. <= 0 disables the cap.
  double max_plan_cost_seconds = 0.0;
};

/// Service-wide configuration.
struct ServeOptions {
  /// Total plan-cache entries (MATOPT_SERVE_CACHE_ENTRIES overrides).
  int cache_entries = 64;
  int cache_shards = 8;
  /// Parameterized reuse envelope: a re-costed cached plan is reusable in
  /// a shape bucket once it costs <= envelope * fresh-search cost there.
  double reuse_envelope = 1.25;
  /// Global concurrent-request cap across all tenants.
  int max_inflight = 64;
  /// Largest input-entry total the execute path will materialize; larger
  /// programs still optimize but RUN degrades to a dry-run (no checksums).
  double max_execute_entries = 4e6;
  /// Budget applied to tenants without an explicit entry.
  TenantBudget default_budget;

  OptimizerOptions optimizer;
  RewriteOptions rewrite;
};

/// One optimize/execute request. `program` is .mla source; inputs for the
/// execute path are fabricated deterministically from `input_seed` (same
/// seed + same program => byte-identical inputs, so cache-hit vs -miss
/// executions are bit-comparable).
struct ServeRequest {
  std::string tenant = "default";
  std::string program;
  bool execute = false;
  uint64_t input_seed = 100;
};

/// What the cache did for one request.
enum class CacheOutcome {
  kMiss = 0,   // full search ran
  kHit,        // exact-fingerprint reuse, no search
  kParamHit,   // dimension-only reuse (re-costed, envelope-validated)
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// Response of one request.
struct ServeResponse {
  CacheOutcome cache = CacheOutcome::kMiss;
  GraphKey key;

  double cost = 0.0;        // materialized-plan cost
  double fused_cost = 0.0;  // cost minus fusion savings (the plan's rank)
  double sim_seconds = 0.0; // dry-run predicted runtime
  bool rewritten = false;
  std::string rewrite_chain;  // " ; "-joined, empty when !rewritten

  double optimize_seconds = 0.0;  // this request's search/reuse latency
  double execute_seconds = 0.0;   // 0 unless executed
  bool executed = false;
  /// FNV-1a over each sink's dense payload bytes (row-major), keyed by the
  /// sink's vertex name — bit-identity comparable across cache outcomes.
  std::vector<std::pair<std::string, uint64_t>> sink_checksums;

  /// MO09x findings and any analysis diagnostics of this request.
  DiagnosticList diagnostics;

  /// Service-wide counters after this request.
  ServeStats stats;
};

/// The long-lived optimizer-and-execution service (DESIGN.md §17): a
/// fingerprinted plan cache over OptimizeWithRewrites plus per-tenant
/// admission control, shared by the matopt_serve daemon, bench_serve, and
/// tests. Thread-safe: Handle() may be called from any number of session
/// threads; heavy work runs on the shared thread pool via the planner and
/// executor it wraps.
class OptimizerService {
 public:
  OptimizerService(const Catalog& catalog, ClusterConfig cluster,
                   ServeOptions options = {});

  /// Serves one request end to end: admission -> parse -> cache lookup /
  /// parameterized reuse / fresh search -> tenant budget -> optional
  /// execution. Typed failures: kInvalidArgument (parse), kOutOfMemory
  /// (admission / budget, matching src/dist's budget errors), plus
  /// anything the optimizer or engine returns.
  Result<ServeResponse> Handle(const ServeRequest& request);

  /// Registers (or replaces) a tenant's budget.
  void SetTenantBudget(const std::string& tenant, TenantBudget budget);

  /// Service-wide counters (cache + admission + latency totals).
  ServeStats Stats() const;

  const PlanCache& cache() const { return cache_; }
  const ServeOptions& options() const { return options_; }

  /// Effective cache-entry count: MATOPT_SERVE_CACHE_ENTRIES when set and
  /// valid, else `configured`.
  static int DefaultCacheEntries(int configured);

 private:
  struct AdmissionGuard;

  Status Admit(const std::string& tenant);
  void Release(const std::string& tenant);
  TenantBudget BudgetFor(const std::string& tenant) const;

  /// Attempts dimension-only reuse of `donor` for `graph`. On success
  /// returns the reused entry (already inserted); null when the donor does
  /// not apply (structure/validation/envelope), in which case the caller
  /// falls through to the fresh search.
  std::shared_ptr<const CachedPlan> TryParamReuse(
      const ComputeGraph& graph, const GraphKey& key,
      const std::shared_ptr<const CachedPlan>& donor,
      DiagnosticList* diagnostics);

  /// The exact-key miss path: parameterized reuse when a validated donor
  /// applies, else the fresh search (cross-checking a donor that is not
  /// validated yet). Inserts and returns the new entry; sets
  /// response->cache to kParamHit on reuse and adds any diagnostics.
  Result<std::shared_ptr<const CachedPlan>> PlanMiss(const ComputeGraph& graph,
                                                     const GraphKey& key,
                                                     ServeResponse* response);

  /// One exact-key miss being planned. Requests that miss on the same key
  /// while it runs wait on `outcome` and share its entry or its error.
  struct Flight {
    std::promise<Result<std::shared_ptr<const CachedPlan>>> promise;
    std::shared_future<Result<std::shared_ptr<const CachedPlan>>> outcome;
  };

  const Catalog& catalog_;
  ClusterConfig cluster_;
  ServeOptions options_;
  CostModel model_;
  PlanCache cache_;

  mutable std::mutex mu_;  // tenants_ + inflight maps
  std::mutex flights_mu_;  // flights_; taken before any cache shard mutex
  std::map<uint64_t, std::shared_ptr<Flight>> flights_;  // by exact key
  std::map<std::string, TenantBudget> tenants_;
  std::map<std::string, int> tenant_inflight_;
  int total_inflight_ = 0;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> admission_rejects_{0};
  std::atomic<int64_t> budget_rejects_{0};
  // Latency totals, guarded by stats_mu_ (doubles have no atomic +=).
  mutable std::mutex stats_mu_;
  double optimize_seconds_ = 0.0;
  double execute_seconds_ = 0.0;
};

/// FNV-1a over a dense matrix's payload bytes (row-major doubles) — the
/// bit-identity checksum of the serve protocol.
uint64_t DenseChecksum(const double* data, int64_t count);

}  // namespace serve
}  // namespace matopt

#endif  // MATOPT_SERVE_SERVICE_H_
