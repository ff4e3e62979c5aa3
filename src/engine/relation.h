#ifndef MATOPT_ENGINE_RELATION_H_
#define MATOPT_ENGINE_RELATION_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/format/format.h"
#include "core/format/matrix_type.h"
#include "engine/cluster.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

namespace matopt {

/// One tuple of a matrix-valued relation: chunk indices, payload shape,
/// the simulated worker holding it, and (outside dry-run mode) the actual
/// chunk data. Exactly one of `dense` / `sparse` is set when data is
/// present.
///
/// A COO-format relation logically has one tuple per non-zero; to keep
/// real execution tractable it is physically represented as one CSR chunk
/// per worker, while the cost accounting still counts per-non-zero tuples.
struct EngineTuple {
  int64_t r = 0;
  int64_t c = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  double sparsity = 1.0;
  int worker = 0;
  std::shared_ptr<const DenseMatrix> dense;
  std::shared_ptr<const SparseMatrix> sparse;

  /// Payload bytes under the owning relation's layout.
  double Bytes(bool sparse_layout) const {
    double entries = static_cast<double>(rows) * static_cast<double>(cols);
    return sparse_layout ? 16.0 * sparsity * entries + 8.0 * rows
                         : 8.0 * entries;
  }
};

/// A horizontally partitioned relation storing one matrix in one physical
/// format. The engine executes relational operators over these.
struct Relation {
  MatrixType type;
  FormatId format = kNoFormat;
  double sparsity = 1.0;
  bool has_data = false;
  std::vector<EngineTuple> tuples;

  double TotalBytes() const;
  /// Bytes resident on each worker.
  std::vector<double> WorkerBytes(int num_workers) const;
};

/// Chunk key of tuple (r, c), unique within a relation.
inline uint64_t TupleKey(int64_t r, int64_t c) {
  return (static_cast<uint64_t>(r) << 32) | static_cast<uint64_t>(c);
}

/// Deterministic worker placement by chunk key.
int WorkerFor(int64_t r, int64_t c, int num_workers);

/// Chunk extents (height, width) of tuples under a layout; the offset of
/// tuple (r, c) within the full matrix is (r * rows, c * cols).
struct ChunkDims {
  int64_t rows = 0;
  int64_t cols = 0;
};
ChunkDims ChunkDimsFor(const MatrixType& type, const Format& format);

/// Chunks a dense matrix into a relation with the given (dense) format.
Result<Relation> MakeRelation(const DenseMatrix& matrix, FormatId format,
                              const ClusterConfig& cluster);

/// Chunks a sparse matrix into a relation with the given (sparse) format.
Result<Relation> MakeSparseRelation(const SparseMatrix& matrix,
                                    FormatId format,
                                    const ClusterConfig& cluster);

/// Builds a metadata-only relation (dry-run mode): tuples carry shapes and
/// placement but no data. Cost accounting is identical to the real path.
Relation MakeDryRelation(const MatrixType& type, FormatId format,
                         double sparsity, const ClusterConfig& cluster);

/// Reassembles a dense matrix from a relation with data. Converts sparse
/// payloads to dense.
Result<DenseMatrix> MaterializeDense(const Relation& relation);

/// Reassembles a sparse matrix from a sparse-format relation with data.
Result<SparseMatrix> MaterializeSparse(const Relation& relation);

}  // namespace matopt

#endif  // MATOPT_ENGINE_RELATION_H_
