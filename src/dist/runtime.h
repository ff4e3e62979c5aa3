#ifndef MATOPT_DIST_RUNTIME_H_
#define MATOPT_DIST_RUNTIME_H_

#include <unordered_map>

#include "core/graph/graph.h"
#include "core/opt/annotation.h"
#include "core/ops/catalog.h"
#include "dist/transport.h"
#include "engine/executor.h"

namespace matopt::dist {

/// Executes an annotated plan on the sharded multi-worker runtime
/// (DESIGN.md §12): `num_workers` in-process workers each own a hash
/// partition of every relation, operators run per shard, and data moves
/// only through shuffle/broadcast exchanges over `transport` (a bounded
/// in-memory transport scoped to this call when null).
///
/// Runs a single-node dry pass for the full simulated ExecStats
/// (including the sim-side budget failures), then builds the plan's stage
/// list (BuildStageList, dist/routing.h) once: each listed stage's
/// exchange traffic is predicted from its dry arguments, and one data walk
/// over the same list routes real payloads and fills in the measured side
/// of each DistExchangeRecord. Each worker fills its out tuples through the
/// same tuple-compute table the single-node executor runs
/// (engine/tuple_compute.h), so sink relations are bit-identical to a
/// single-node execution at any worker count; stats.dist reports predicted
/// vs measured traffic per stage.
///
/// Budgets are enforced deterministically on the coordinator before any
/// send: single_tuple_cap_bytes per routed tuple, broadcast_cap_bytes per
/// replicated relation, worker_spill_bytes on a worker's per-stage remote
/// shuffle inbound. Violations return typed kOutOfMemory errors.
/// `fusion` is forwarded to the dry pass so the simulated MemoryStats
/// reflect the caller's fused-group setting; the data walk itself runs
/// stage-by-stage per shard and never applies fused chains.
Result<ExecResult> ExecuteDistributedPlan(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    std::unordered_map<int, Relation> inputs, int num_workers,
    Transport* transport, bool fusion);

}  // namespace matopt::dist

#endif  // MATOPT_DIST_RUNTIME_H_
