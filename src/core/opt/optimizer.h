#ifndef MATOPT_CORE_OPT_OPTIMIZER_H_
#define MATOPT_CORE_OPT_OPTIMIZER_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/cost/cost_model.h"
#include "core/graph/graph.h"
#include "core/opt/annotation.h"
#include "core/ops/catalog.h"
#include "engine/cluster.h"

namespace matopt {

/// Options shared by the three optimization algorithms.
struct OptimizerOptions {
  /// Wall-clock budget; exceeding it returns Status::Timeout (the paper's
  /// Figure 13 uses a 30-minute cutoff, reported as "Fail").
  double time_limit_sec = 1800.0;

  /// Safety bound on frontier equivalence-class size (the paper's `c`).
  /// Fixed-format members (graph inputs) count toward the bound but only
  /// contribute one table value each.
  int max_class_size = 25;

  /// Beam cap on a frontier class table. The DP is exact while every table
  /// fits; beyond the cap only the cheapest entries are kept (and the
  /// result is marked `beam_pruned`). Large shared graphs such as the
  /// 57-vertex FFNN keep ~8 free vertices live at once, which would need
  /// ~16^8 joint states — the paper's bounded-class-size assumption in
  /// Section 6.3 corresponds to this cap in practice.
  int64_t max_table_entries = 500000;

  /// When true (default), implementations whose projected per-worker
  /// memory/spill footprint exceeds the cluster budget are treated as ⊥,
  /// so the optimizer never emits a plan that would crash the engine.
  bool enforce_resource_limits = true;

  /// When false, transformation costs are zeroed during optimization (the
  /// SystemDS-style ablation of DESIGN.md §6); the transformations are
  /// still placed for type correctness.
  bool cost_transforms = true;

  /// When false, dense->sparse conversions are disabled, pinning the plan
  /// to dense operations (the "PC No Sparsity" configuration of Fig 12).
  bool allow_sparse = true;

  /// When true (default), the fuse-plan enumerator (DESIGN.md §15) runs
  /// over the chosen annotation: elementwise epilogue chains are grouped
  /// and costed with the same model, the winning grouping lands in
  /// Annotation::fusion and PlanResult::fused_cost. The MATOPT_FUSION
  /// runtime knob gates it as well.
  bool plan_fusion = true;
};

/// Output of an optimization run.
struct PlanResult {
  Annotation annotation;
  double cost = 0.0;         // predicted Cost(G*) under the cost model
  /// cost minus the predicted savings of annotation.fusion — the cost the
  /// plan is expected to run at. Equal to `cost` when nothing fused.
  double fused_cost = 0.0;
  double opt_seconds = 0.0;  // wall-clock optimization time
  int64_t states_explored = 0;
  /// True when the frontier DP hit its table beam cap; the plan is then
  /// best-within-beam rather than provably optimal.
  bool beam_pruned = false;
  /// Vertices whose frontier table hit max_table_entries (0 unless
  /// beam_pruned).
  int beam_pruned_vertices = 0;
};

/// Exhaustive search (Algorithm 2). Exponential in the number of op
/// vertices; only viable for the smallest graphs.
Result<PlanResult> BruteForceOptimize(const ComputeGraph& graph,
                                      const Catalog& catalog,
                                      const CostModel& model,
                                      const ClusterConfig& cluster,
                                      const OptimizerOptions& options = {});

/// Felsenstein-style dynamic program for tree-shaped graphs (Algorithm 3).
/// Requires graph.IsTree().
Result<PlanResult> TreeDpOptimize(const ComputeGraph& graph,
                                  const Catalog& catalog,
                                  const CostModel& model,
                                  const ClusterConfig& cluster,
                                  const OptimizerOptions& options = {});

/// Frontier dynamic program for general DAGs (Algorithm 4): maintains
/// joint cost tables over equivalence classes of frontier vertices that
/// share ancestors, so shared sub-computations are costed once.
Result<PlanResult> FrontierOptimize(const ComputeGraph& graph,
                                    const Catalog& catalog,
                                    const CostModel& model,
                                    const ClusterConfig& cluster,
                                    const OptimizerOptions& options = {});

/// Facade: tree DP for tree-shaped graphs, frontier DP otherwise.
Result<PlanResult> Optimize(const ComputeGraph& graph, const Catalog& catalog,
                            const CostModel& model,
                            const ClusterConfig& cluster,
                            const OptimizerOptions& options = {});

// ----------------------------------------------------------------------
// Shared machinery (used by the algorithms and by tests).

/// One (from -> to) transformation choice: the cheapest catalog
/// transformation achieving the change, or infeasible.
struct TransformChoice {
  bool feasible = false;
  std::optional<TransformKind> kind;  // nullopt = identity
  double cost = 0.0;
};

/// Cheapest-transformation lookup table for one matrix type, over all
/// format pairs. from == to is the identity with zero cost.
class TransformTable {
 public:
  /// When `enforce_resources` is set, transformations whose projected
  /// per-worker footprint exceeds the cluster memory budget are treated
  /// as infeasible (the optimizer's hardware-awareness); human planners
  /// leave it off and may produce plans that fail on the engine.
  TransformTable(const Catalog& catalog, const CostModel& model,
                 const ClusterConfig& cluster, const MatrixType& type,
                 double sparsity, bool cost_transforms = true,
                 bool allow_sparse = true, bool enforce_resources = false);

  const TransformChoice& Get(FormatId from, FormatId to) const {
    return table_[from * num_formats_ + to];
  }

 private:
  int num_formats_;
  std::vector<TransformChoice> table_;
};

/// Formats (from the catalog's enabled set) applicable to a matrix of the
/// given type and sparsity on this cluster.
std::vector<FormatId> FeasibleFormats(const Catalog& catalog,
                                      const ClusterConfig& cluster,
                                      const MatrixType& type, double sparsity,
                                      bool allow_sparse = true);

}  // namespace matopt

#endif  // MATOPT_CORE_OPT_OPTIMIZER_H_
