#ifndef MATOPT_DIST_ROUTING_H_
#define MATOPT_DIST_ROUTING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/format/format.h"
#include "core/ops/catalog.h"
#include "engine/cluster.h"
#include "engine/relation.h"

namespace matopt::dist {

/// Routing: which output chunk keys need each argument tuple. The owner of
/// an output key comes from the output skeleton, so the projection pass,
/// the data pass, and the static dataflow analyzer all derive identical
/// destinations from metadata alone — routing never looks at payloads or
/// densities, which is what makes the analyzer's per-stage byte intervals
/// line up with the runtime's stage records label for label.

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

/// Per-argument routes of an implementation's exchange stage.
std::vector<Route> RoutesFor(ImplKind kind);

/// Produces the out keys an arg tuple is needed at. kBroadcast never
/// consults the key fn: its destinations are every worker.
using KeyFn = std::function<void(const EngineTuple&,
                                 std::vector<std::pair<int64_t, int64_t>>*)>;

KeyFn KeyFnFor(Route route, int64_t nr_out, int64_t nc_out);

/// Grid-overlap routing for format transformations: a source chunk is
/// needed by every target chunk whose region it intersects.
KeyFn GridOverlapKeyFn(const MatrixType& type, const Format& src_fmt,
                       const Format& dst_fmt);

/// Out-key -> owning runtime worker, from the output skeleton.
struct OwnerMap {
  std::unordered_map<uint64_t, int> owner;
  int64_t nr = 0;
  int64_t nc = 0;
};

OwnerMap MapOwners(const Relation& skeleton, int num_workers);

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

/// Pure routing: destination workers per tuple and the delivery count
/// (both functions of relation metadata only — no byte accounting, no
/// budget enforcement). Cannot fail.
StagePlan RouteStage(const std::vector<const Relation*>& args,
                     const std::vector<Route>& routes,
                     const std::vector<KeyFn>& keyfns, const OwnerMap& owners,
                     int num_workers);

/// Full stage planning for the runtime passes: routes, then accounts the
/// shuffle/broadcast bytes this plan moves and enforces the cluster
/// budgets (broadcast_cap_bytes per replicated relation,
/// single_tuple_cap_bytes per routed tuple, worker_spill_bytes on a
/// worker's remote shuffle inbound). Built the same way by the projection
/// pass (estimated sparsity) and the data pass (measured sparsity); budget
/// enforcement happens here, on the coordinator, before anything is sent —
/// so violations are deterministic typed errors, never a worker-dependent
/// race.
Result<StagePlan> PlanStage(const std::string& label,
                            const std::vector<const Relation*>& args,
                            const std::vector<Route>& routes,
                            const std::vector<KeyFn>& keyfns,
                            const OwnerMap& owners,
                            const ClusterConfig& cluster, int num_workers);

}  // namespace matopt::dist

#endif  // MATOPT_DIST_ROUTING_H_
