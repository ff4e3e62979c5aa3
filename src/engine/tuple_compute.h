#ifndef MATOPT_ENGINE_TUPLE_COMPUTE_H_
#define MATOPT_ENGINE_TUPLE_COMPUTE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/graph/graph.h"
#include "core/ops/catalog.h"
#include "engine/relation.h"

namespace matopt {

/// The engine's one data path (DESIGN.md §10, §12): every atomic
/// computation implementation, and the transformation re-chunk, as one
/// kernel sequence over chunk tuples. The single-node executor runs it as
/// the one-worker case over the relations' own tuples; the sharded runtime
/// runs it per worker over the tuples its exchanges gathered. Both read the
/// same kernels in the same accumulation order, so sinks are bit-identical
/// at any worker count by construction.

using TupleMap = std::unordered_map<uint64_t, const EngineTuple*>;

/// Tuples by chunk key.
TupleMap MapTuples(std::span<const EngineTuple> tuples);

/// What a stage computes: an implementation, or (no `kind`) the format
/// transformation's overlap-copy re-chunk of `args[0]` into the skeleton's
/// format. Only argument metadata (type, format) is read from `args`;
/// payloads come from the gathered tuples.
struct TupleStage {
  std::optional<ImplKind> kind;
  const Vertex* vertex = nullptr;  // implementations only
  std::vector<const Relation*> args;
};

/// Output payloads indexed like the skeleton's tuples.
struct PayloadSlots {
  explicit PayloadSlots(size_t n) : dense(n), sparse(n) {}
  std::vector<std::shared_ptr<const DenseMatrix>> dense;
  std::vector<std::shared_ptr<const SparseMatrix>> sparse;
};

/// Per-slot dense buffers an element-wise kernel writes into instead of
/// allocating (stolen argument payloads); null entries allocate.
using InPlaceTargets = std::vector<std::shared_ptr<DenseMatrix>>;

/// Fills the `out_indices` slots of `skeleton` from `gathered[j]`, the
/// argument-j tuples available to the caller in canonical key order.
/// Slots run in an index-addressed ParallelFor, so results do not depend
/// on the thread count. A tuple missing from `gathered` is an Internal
/// error.
Status ComputeTuples(const TupleStage& stage,
                     const std::vector<std::span<const EngineTuple>>& gathered,
                     const Relation& skeleton,
                     const std::vector<int>& out_indices,
                     const InPlaceTargets* in_place, PayloadSlots* out);

/// Installs `slots` into `skeleton` (empty slots become zero payloads).
/// With `measure_sparsity`, a sparse relation's sparsity becomes its
/// measured non-zero fraction, as a freshly chunked relation reports it.
void InstallPayloads(PayloadSlots slots, bool measure_sparsity,
                     Relation* skeleton);

/// The one-worker case: computes every slot of `skeleton` from the
/// argument relations' own tuples and installs the payloads.
Status ComputeLocal(const TupleStage& stage, const InPlaceTargets* in_place,
                    bool measure_sparsity, Relation* skeleton);

}  // namespace matopt

#endif  // MATOPT_ENGINE_TUPLE_COMPUTE_H_
