#ifndef MATOPT_ENGINE_EXECUTOR_H_
#define MATOPT_ENGINE_EXECUTOR_H_

#include <unordered_map>

#include "common/status.h"
#include "core/graph/graph.h"
#include "core/opt/annotation.h"
#include "core/ops/catalog.h"
#include "engine/exec_stats.h"
#include "engine/relation.h"

namespace matopt {

namespace dist {
class Transport;
}  // namespace dist

/// Result of executing an annotated compute graph.
struct ExecResult {
  ExecStats stats;
  /// Relations of the graph's sink vertices (with data unless dry-run).
  std::unordered_map<int, Relation> sinks;
};

/// Executes annotated compute graphs on the simulated distributed
/// relational engine. Every vertex runs its annotated atomic computation
/// implementation and every edge its annotated transformation; the same
/// accounting code produces simulated time in both data and dry-run modes,
/// so dry-run timings at paper scale match what real execution would
/// charge.
class PlanExecutor {
 public:
  PlanExecutor(const Catalog& catalog, const ClusterConfig& cluster)
      : catalog_(catalog), cluster_(cluster) {}

  /// Executes with caller-provided source relations (keyed by source
  /// vertex id). Each relation's format must match the annotation. When
  /// any input is a dry-run relation the whole execution is dry.
  Result<ExecResult> Execute(const ComputeGraph& graph,
                             const Annotation& annotation,
                             std::unordered_map<int, Relation> inputs) const;

  /// Dry-run convenience: fabricates metadata-only inputs from the
  /// graph's source vertices and executes the plan for its statistics.
  Result<ExecResult> DryRun(const ComputeGraph& graph,
                            const Annotation& annotation) const;

  /// Accepted for source compatibility and ignored: execution always
  /// steals dying payloads, runs in-place kernels and accumulates into
  /// views (DESIGN.md §10).
  void set_zero_copy(bool) {}

  /// Toggles fused-group execution (DESIGN.md §15): when on, the plan's
  /// fused groups — or, for plans without one, the
  /// detector's maximal chains — run as in-place epilogue chains over the
  /// base's output and members pass payloads through. Results are
  /// bit-identical either way; only materialized bytes change.
  void set_fusion(bool enabled) { fusion_ = enabled; }
  bool fusion() const { return fusion_; }

  /// Process default for new executors: FusionEnabled() at construction
  /// time (MATOPT_FUSION env / override / compiled default).
  static bool DefaultFusion();

  /// Number of sharded runtime workers (DESIGN.md §12). When > 0, data-mode
  /// executions run on the multi-worker runtime: relations are
  /// hash-partitioned across workers, operators run per shard, and data
  /// moves through shuffle/broadcast exchanges. 0 (the default unless
  /// MATOPT_WORKERS is set) keeps the single-node path. Sinks are
  /// bit-identical at any worker count.
  void set_dist_workers(int num_workers) {
    dist_workers_ = num_workers < 0 ? 0 : num_workers;
  }
  int dist_workers() const { return dist_workers_; }

  /// Process default for new executors (MATOPT_WORKERS env; unset or
  /// invalid means 0 = single-node).
  static int DefaultDistWorkers();

  /// Overrides the transport distributed executions move data through.
  /// Null (the default) scopes a fresh in-memory transport to each
  /// execution. The pointer is borrowed, not owned.
  void set_transport(dist::Transport* transport) { transport_ = transport; }

 private:
  const Catalog& catalog_;
  const ClusterConfig& cluster_;
  bool fusion_ = DefaultFusion();
  int dist_workers_ = DefaultDistWorkers();
  dist::Transport* transport_ = nullptr;
};

}  // namespace matopt

#endif  // MATOPT_ENGINE_EXECUTOR_H_
