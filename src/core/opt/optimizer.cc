#include "core/opt/optimizer.h"

#include "core/opt/search_memo.h"

namespace matopt {

TransformTable::TransformTable(const Catalog& catalog, const CostModel& model,
                               const ClusterConfig& cluster,
                               const MatrixType& type, double sparsity,
                               bool cost_transforms, bool allow_sparse,
                               bool enforce_resources)
    : num_formats_(static_cast<int>(BuiltinFormats().size())),
      table_(num_formats_ * num_formats_) {
  for (FormatId from = 0; from < num_formats_; ++from) {
    if (!catalog.FormatEnabled(from)) continue;
    TransformChoice& identity = table_[from * num_formats_ + from];
    identity.feasible = true;
    identity.kind = std::nullopt;
    identity.cost = 0.0;
    ArgInfo arg{type, from, sparsity};
    for (TransformKind kind : Catalog::AllTransforms()) {
      auto out = catalog.TransformOutputFormat(kind, arg, cluster);
      if (!out.has_value()) continue;
      if (!allow_sparse && BuiltinFormats()[*out].sparse()) continue;
      if (enforce_resources &&
          catalog.TransformFeatures(kind, arg, cluster).peak_worker_bytes >
              cluster.worker_mem_bytes) {
        continue;
      }
      double cost =
          cost_transforms ? model.TransformCost(catalog, kind, arg, cluster)
                          : 0.0;
      TransformChoice& choice = table_[from * num_formats_ + *out];
      if (!choice.feasible || cost < choice.cost) {
        choice.feasible = true;
        choice.kind = kind;
        choice.cost = cost;
      }
    }
  }
}

std::vector<FormatId> FeasibleFormats(const Catalog& catalog,
                                      const ClusterConfig& cluster,
                                      const MatrixType& type, double sparsity,
                                      bool allow_sparse) {
  std::vector<FormatId> out;
  for (FormatId id : catalog.enabled_formats()) {
    const Format& f = BuiltinFormats()[id];
    if (f.sparse() && !allow_sparse) continue;
    if (FormatApplicable(f, type, cluster.single_tuple_cap_bytes, sparsity)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<PlanResult> Optimize(const ComputeGraph& graph, const Catalog& catalog,
                            const CostModel& model,
                            const ClusterConfig& cluster,
                            const OptimizerOptions& options) {
  SearchMemo memo;
  return Optimize(graph, catalog, model, cluster, options, &memo);
}

Result<PlanResult> Optimize(const ComputeGraph& graph, const Catalog& catalog,
                            const CostModel& model,
                            const ClusterConfig& cluster,
                            const OptimizerOptions& options,
                            SearchMemo* memo) {
  if (graph.IsTree()) {
    return TreeDpOptimize(graph, catalog, model, cluster, options);
  }
  return FrontierOptimize(graph, catalog, model, cluster, options, memo);
}

}  // namespace matopt
