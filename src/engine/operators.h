#ifndef MATOPT_ENGINE_OPERATORS_H_
#define MATOPT_ENGINE_OPERATORS_H_

#include <vector>

#include "common/status.h"
#include "core/graph/graph.h"
#include "core/ops/catalog.h"
#include "engine/exec_stats.h"
#include "engine/relation.h"

namespace matopt {

/// Executes one physical matrix transformation on the simulated cluster:
/// repartitions (and, for dense<->sparse, converts) the relation into the
/// transformation's target format, charging network, tuple, and
/// materialization costs. Works on dry-run relations (metadata only) and
/// data relations alike.
Result<Relation> ExecuteTransform(const Catalog& catalog, TransformKind kind,
                                  const Relation& input,
                                  const ClusterConfig& cluster,
                                  ExecStats* stats);

/// The output relation's metadata of a transformation: `input`'s type
/// chunked in the target format. TypeError when the transformation is
/// infeasible for `input`.
Result<Relation> TransformSkeleton(const Catalog& catalog, TransformKind kind,
                                   const Relation& input,
                                   const ClusterConfig& cluster);

/// One argument of an atomic computation implementation. `rel` is always
/// set; `owned` additionally points at the same relation when the plan
/// proved its producer is dead after this edge (single remaining
/// consumer), so the operator may steal tuple payloads whose refcount
/// is 1 instead of allocating fresh outputs.
struct ExecInput {
  const Relation* rel = nullptr;
  Relation* owned = nullptr;
};

/// Per-call execution options. A default-constructed ExecOptions (no
/// fusion) is what the compatibility ExecuteImpl overload uses.
struct ExecOptions {
  /// >= 0 when this vertex is a fused-group member (DESIGN.md §15): its
  /// value was already applied in place over the group base's output, so
  /// the vertex charges its normal accounting but passes through arg
  /// `passthrough_arg`'s payloads instead of recomputing.
  int passthrough_arg = -1;
};

/// Executes one atomic computation implementation over its argument
/// relations. `vertex` supplies the output type, scalar attribute, and
/// estimated output sparsity; `out_format` is the annotated output
/// physical implementation (already validated against i.f).
Result<Relation> ExecuteImpl(const Catalog& catalog, ImplKind kind,
                             FormatId out_format,
                             const std::vector<const Relation*>& args,
                             const Vertex& vertex,
                             const ClusterConfig& cluster, ExecStats* stats);

/// Move-aware overload: arguments carry ownership information and
/// `options` selects fused-member passthrough. The plain overload forwards
/// here with default options and no owned arguments. The accounting runs
/// on metadata alone; data-mode payloads come from the tuple-compute table
/// (engine/tuple_compute.h).
Result<Relation> ExecuteImpl(const Catalog& catalog, ImplKind kind,
                             FormatId out_format,
                             const std::vector<ExecInput>& args,
                             const Vertex& vertex,
                             const ClusterConfig& cluster, ExecStats* stats,
                             const ExecOptions& options);

}  // namespace matopt

#endif  // MATOPT_ENGINE_OPERATORS_H_
