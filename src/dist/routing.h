#ifndef MATOPT_DIST_ROUTING_H_
#define MATOPT_DIST_ROUTING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/format/format.h"
#include "core/graph/graph.h"
#include "core/ops/catalog.h"
#include "core/opt/annotation.h"
#include "engine/cluster.h"
#include "engine/relation.h"

namespace matopt::dist {

/// Routing: which output chunk keys need each argument tuple. The owner of
/// an output key comes from the output skeleton, so destinations derive
/// from relation metadata alone — routing never looks at payloads or
/// densities. BuildStageList turns an annotated plan into its ordered
/// exchange stages once; the sharded runtime predicts and runs them, and
/// the static dataflow analyzer bounds them, from that one list.

enum class Route {
  kIdentity,       // arg key == out key (co-partitioned, never moves)
  kBroadcast,      // replicate to every worker
  kRowsToAllCols,  // (r, *) -> every out key in row r
  kColsToAllRows,  // (*, c) -> every out key in column c
  kAllToRoot,      // everything to the owner of out key (0, 0)
  kTransSwap,      // (r, c) -> out key (c, r)
  kTransRowToCol,  // (r, 0) -> out key (0, r)
  kTransColToRow,  // (0, c) -> out key (c, 0)
  kRowGroup,       // (r, *) -> out key (r, 0)
  kColGroup,       // (*, c) -> out key (0, c)
};

/// Produces the out keys an arg tuple is needed at. kBroadcast never
/// consults the key fn: its destinations are every worker.
using KeyFn = std::function<void(const EngineTuple&,
                                 std::vector<std::pair<int64_t, int64_t>>*)>;

/// Out-key -> owning runtime worker, from the output skeleton.
struct OwnerMap {
  std::unordered_map<uint64_t, int> owner;
  int64_t nr = 0;
  int64_t nc = 0;
};

/// Where a stage argument comes from: the output of earlier stage `stage`,
/// or (stage == -1) the graph input relation of `vertex`. `vertex` is
/// always the graph vertex whose matrix the argument holds.
struct StageArg {
  int stage = -1;
  int vertex = -1;
};

/// One exchange stage of a sharded plan: a format transformation on one
/// input edge of `vertex` (routed by chunk-grid overlap), or the vertex's
/// implementation (routed per argument by the implementation's routes).
struct Stage {
  std::string label;  // "v<id>:<impl>" or "v<id>.arg<j>:transform:<kind>"
  int vertex = -1;
  int edge_arg = -1;  // transform stages only; -1 for impl stages
  std::optional<ImplKind> impl;            // set on impl stages
  std::optional<TransformKind> transform;  // set on transform stages
  std::vector<StageArg> args;
  Relation skeleton;  // dry output relation (metadata only)
  OwnerMap owners;    // of `skeleton`'s keys
  std::vector<Route> routes;
  std::vector<KeyFn> keyfns;
};

/// The plan's exchange stages in execution order: per vertex in graph
/// order, one stage per transformed input edge, then the implementation
/// stage. Metadata only: `dry_inputs` holds a dry relation per graph input.
/// Typed errors for a malformed plan — annotation size, edge count,
/// topological order, implementation arity, infeasible transformation.
Result<std::vector<Stage>> BuildStageList(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    const std::unordered_map<int, Relation>& dry_inputs, int num_workers);

/// The relations `stage` reads: `output(i)` for earlier stage i's output,
/// `inputs` for graph inputs.
template <typename OutputFn>
std::vector<const Relation*> StageArgs(
    const Stage& stage, const std::unordered_map<int, Relation>& inputs,
    OutputFn output) {
  std::vector<const Relation*> rels;
  rels.reserve(stage.args.size());
  for (const StageArg& a : stage.args) {
    rels.push_back(a.stage >= 0 ? &output(a.stage) : &inputs.at(a.vertex));
  }
  return rels;
}

/// Move plan of one stage: per argument, the destination workers of every
/// tuple plus the traffic this routing implies.
struct StagePlan {
  struct Arg {
    bool broadcast = false;
    bool sparse_layout = false;
    std::vector<std::vector<int>> dests;  // per tuple, sorted ranks
  };
  std::vector<Arg> args;
  double shuffle_bytes = 0.0;    // remote, non-broadcast args
  double broadcast_bytes = 0.0;  // remote, broadcast args
  double tuples = 0.0;           // all deliveries incl. local
};

/// Pure routing of `stage` over the argument relations `args`: destination
/// workers per tuple and the delivery count (both functions of relation
/// metadata only — no byte accounting, no budget enforcement). Cannot
/// fail.
StagePlan RouteStage(const Stage& stage,
                     const std::vector<const Relation*>& args,
                     int num_workers);

/// Full stage planning for the runtime: routes, then accounts the
/// shuffle/broadcast bytes this plan moves and enforces the cluster
/// budgets (broadcast_cap_bytes per replicated relation,
/// single_tuple_cap_bytes per routed tuple, worker_spill_bytes on a
/// worker's remote shuffle inbound). The runtime calls it on a stage's dry
/// arguments (estimated sparsity) to predict, then on its real arguments
/// (measured sparsity) to run; budget enforcement happens here, on the
/// coordinator, before anything is sent — so violations are deterministic
/// typed errors, never a worker-dependent race.
Result<StagePlan> PlanStage(const Stage& stage,
                            const std::vector<const Relation*>& args,
                            const ClusterConfig& cluster, int num_workers);

}  // namespace matopt::dist

#endif  // MATOPT_DIST_ROUTING_H_
