#ifndef MATOPT_ANALYSIS_DATAFLOW_H_
#define MATOPT_ANALYSIS_DATAFLOW_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/domains.h"
#include "common/status.h"
#include "core/graph/graph.h"
#include "core/ops/catalog.h"
#include "core/opt/annotation.h"
#include "engine/cluster.h"

namespace matopt {

/// Forward abstract interpretation over the program DAG (DESIGN.md §14).
/// Vertices are visited in the graph's topological order; every vertex gets
/// a sound density interval. Shape stays exact (Vertex::type, re-derived by
/// InferOutputType at construction), so only the sparsity layer needs a
/// fixpoint-free single forward sweep — the graph is a DAG and every
/// transfer function is monotone in interval inclusion.

struct DataflowResult {
  /// One interval per vertex id. Inputs are seeded with their stored
  /// sparsity as a point interval unless overridden; op vertices carry the
  /// transfer-function image of their argument intervals.
  std::vector<SparsityInterval> vertex_sparsity;

  const SparsityInterval& at(int v) const { return vertex_sparsity[v]; }
};

/// Runs the forward sparsity dataflow. `seeds` overrides the interval of
/// any vertex with a point (input overrides and mid-graph pins — a pinned
/// vertex's transfer result is replaced by the pin, mirroring
/// PropagateSparsity's pinning semantics). Pass nullptr for the default
/// seeding (inputs at their stored sparsity).
DataflowResult RunSparsityDataflow(
    const ComputeGraph& graph,
    const std::unordered_map<int, double>* seeds = nullptr);

/// Statically derived bounds of one dist exchange stage. Both these bounds
/// and the dist runtime's stage records come from dist::BuildStageList, so
/// labels (`v<id>:<ImplKindName>` /
/// `v<id>.arg<j>:transform:<TransformKindName>`) and order are the
/// runtime's; the fuzz oracle lines measured traffic up against these
/// intervals and the lint pre-flight names the offending stage.
struct StageBounds {
  std::string label;
  int vertex = -1;
  int edge_arg = -1;  // transform stages only; -1 for impl stages

  /// Remote traffic this stage's routing implies, over all data whose
  /// densities lie in the dataflow intervals (adversarial placement of
  /// non-zeros across chunks included).
  ByteInterval shuffle_bytes;
  ByteInterval broadcast_bytes;
  /// Deliveries (incl. local) — routing is metadata-only, so this is exact.
  double tuples = 0.0;

  /// Budget-facing quantities.
  struct ArgBound {
    bool broadcast = false;
    ByteInterval total_bytes;      // vs broadcast_cap_bytes when broadcast
    ByteInterval max_tuple_bytes;  // vs single_tuple_cap_bytes
  };
  std::vector<ArgBound> args;
  /// max over workers of the per-worker remote shuffle inbound
  /// (vs worker_spill_bytes): lo/hi are each worker's own extremes, maxed.
  ByteInterval max_worker_inbound;
};

/// Iterates the annotated plan's stage list (dist::BuildStageList) and
/// derives sound byte bounds per stage from its metadata-only routing and
/// the dataflow intervals. `input_sparsity` optionally overrides the
/// relation sparsity of input vertices (the oracle passes measured
/// densities; lint uses the declared ones) — it must agree with the seeds
/// used for `flow`. Fails only when the annotation is not executable (the
/// stage list's typed errors, e.g. an infeasible transform).
Result<std::vector<StageBounds>> ComputeDistStageBounds(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    const DataflowResult& flow, int num_workers,
    const std::unordered_map<int, double>* input_sparsity = nullptr);

}  // namespace matopt

#endif  // MATOPT_ANALYSIS_DATAFLOW_H_
