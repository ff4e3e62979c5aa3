#ifndef MATOPT_FUZZ_REFERENCE_H_
#define MATOPT_FUZZ_REFERENCE_H_

#include <map>

#include "common/status.h"
#include "core/graph/graph.h"
#include "la/dense_matrix.h"

namespace matopt::fuzz {

/// Single-node reference interpreter used as the execution oracle's ground
/// truth. Deliberately independent of the production kernels: every op is
/// a direct textbook loop (no blocking, no zero-skip gate, no threading,
/// no buffer reuse), so a fault anywhere in the optimized stack — kernels,
/// operators, executor, memory layer — shows up as a numerical mismatch.
/// kInverse runs ReferenceInverse below, not the library's blocked LU.
///
/// Evaluates every vertex up to `target` (the whole graph when target is
/// -1) and returns the values of the graph's sink vertices.
Result<std::map<int, DenseMatrix>> EvaluateReference(
    const ComputeGraph& graph, const std::map<int, DenseMatrix>& inputs,
    int target = -1);

/// Textbook inverse: unblocked right-looking LU with partial pivoting
/// (skipping exact-zero multipliers), then one forward and one back
/// substitution per column of P·I, every sum in ascending index order.
/// The production `Inverse` performs each element's operations in this
/// same sequence, so the two agree bit for bit; a pivoting reference that
/// rounded differently would disagree beyond any useful tolerance on
/// ill-conditioned inputs. Fails like `Inverse` on a non-square or
/// singular input.
Result<DenseMatrix> ReferenceInverse(const DenseMatrix& a);

/// Evaluates the whole graph and returns every vertex's value (indexed by
/// vertex id). The bounds-soundness oracle measures per-vertex densities
/// against the statically derived sparsity intervals with this.
Result<std::vector<DenseMatrix>> EvaluateReferenceAllVertices(
    const ComputeGraph& graph, const std::map<int, DenseMatrix>& inputs);

}  // namespace matopt::fuzz

#endif  // MATOPT_FUZZ_REFERENCE_H_
