#ifndef MATOPT_CORE_OPT_SEARCH_MEMO_H_
#define MATOPT_CORE_OPT_SEARCH_MEMO_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/opt/optimizer.h"

namespace matopt {

/// The cheapest (implementation, transformation) choice of one op vertex
/// for one combination of argument pin formats and one output format `out`
/// (the vertex-local term of Equation 2).
struct FrontierDelta {
  double cost = 0.0;
  ImplKind impl = ImplKind::kMmSingleSingle;
  FormatId out = kNoFormat;
  std::array<EdgeAnnotation, 2> edges{};
};

/// Every finite FrontierDelta of one vertex signature. Pin combination c
/// (argument 0's pin fastest, base = number of builtin formats) owns
/// deltas[combo_begin[c], combo_begin[c + 1]), in ascending `out` order.
struct VertexDeltas {
  std::vector<int32_t> combo_begin;
  std::vector<FrontierDelta> deltas;
  /// Feasible (pin combination, implementation choice) pairs the
  /// enumeration visited; a memo hit adds the same count to
  /// PlanResult::states_explored as a fresh enumeration would.
  int64_t states = 0;
};

/// Vertex-local search work shared by every frontier search of one
/// OptimizeWithRewrites call (DESIGN.md §16): cheapest-transformation
/// tables keyed by (shape, sparsity bits) and VertexDeltas keyed by
/// (op, each argument's shape and sparsity bits). Both are pure functions
/// of their key once the catalog, cost model, cluster and options are
/// fixed, so one memo must only ever serve searches that share those four.
/// Keys are compared in full (std::map), never by hash alone. Not
/// thread-safe; a memo lives no longer than the call that owns it.
struct SearchMemo {
  std::map<std::vector<uint64_t>, std::unique_ptr<const TransformTable>>
      transforms;
  std::map<std::vector<uint64_t>, std::unique_ptr<const VertexDeltas>>
      deltas;
};

/// FrontierOptimize that reads and fills `memo`.
Result<PlanResult> FrontierOptimize(const ComputeGraph& graph,
                                    const Catalog& catalog,
                                    const CostModel& model,
                                    const ClusterConfig& cluster,
                                    const OptimizerOptions& options,
                                    SearchMemo* memo);

/// Optimize() that hands `memo` to the frontier DP (the tree DP has no
/// vertex-local work worth sharing).
Result<PlanResult> Optimize(const ComputeGraph& graph, const Catalog& catalog,
                            const CostModel& model,
                            const ClusterConfig& cluster,
                            const OptimizerOptions& options, SearchMemo* memo);

}  // namespace matopt

#endif  // MATOPT_CORE_OPT_SEARCH_MEMO_H_
