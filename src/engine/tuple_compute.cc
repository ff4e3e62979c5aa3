#include "engine/tuple_compute.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "la/kernels.h"

namespace matopt {

namespace {

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

/// What one slot computation sees: the stage, its gathered arguments
/// (also keyed), and where results go.
struct SlotEnv {
  const TupleStage& stage;
  const std::vector<std::span<const EngineTuple>>& gathered;
  std::vector<TupleMap> maps;
  const Relation& skeleton;
  const InPlaceTargets* in_place;
  PayloadSlots* out;

  Result<const EngineTuple*> Find(size_t arg, int64_t r, int64_t c) const {
    auto it = maps[arg].find(TupleKey(r, c));
    if (it == maps[arg].end()) {
      return Status::Internal("argument " + std::to_string(arg) +
                              " is missing tuple (" + std::to_string(r) +
                              "," + std::to_string(c) + ")");
    }
    return it->second;
  }
  DenseMatrix* InPlace(int idx) const {
    return in_place != nullptr ? (*in_place)[idx].get() : nullptr;
  }
  void Emit(int idx, DenseMatrix m) const {
    out->dense[idx] = std::make_shared<DenseMatrix>(std::move(m));
  }
  void EmitSparse(int idx, SparseMatrix m) const {
    out->sparse[idx] = std::make_shared<SparseMatrix>(std::move(m));
  }
};

/// Computes out slot `idx`. Each case is the implementation's kernel
/// sequence for one output tuple; multi-tuple accumulations walk the
/// gathered arguments in canonical key order.
Status ComputeSlot(const SlotEnv& env, ImplKind kind, int idx) {
  const EngineTuple& t = env.skeleton.tuples[idx];
  const std::vector<const Relation*>& args = env.stage.args;
  switch (kind) {
    case ImplKind::kMmSingleSingle:
    case ImplKind::kMmSpSingleXSingle:
    case ImplKind::kGpuMmSingleSingle:
    case ImplKind::kMmRowStripsXBcastSingle:
    case ImplKind::kMmSpRowStripsXBcastSingle:
    case ImplKind::kGpuMmRowStripsXBcastSingle:
    case ImplKind::kMmBcastSingleXColStrips:
    case ImplKind::kMmSpSingleXColStrips:
    case ImplKind::kGpuMmBcastSingleXColStrips:
    case ImplKind::kMmCrossStrips: {
      // One product per out tuple: lhs row block t.r times rhs column
      // block t.c (single tuples and strips are the 1-block cases).
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, 0));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* tb, env.Find(1, 0, t.c));
      env.Emit(idx, FormatOf(args[0]->format).sparse()
                        ? SpMm(*ta->sparse, *tb->dense)
                        : Gemm(*ta->dense, *tb->dense));
      return Status::OK();
    }
    case ImplKind::kMmTilesShuffle:
    case ImplKind::kMmBcastTilesXTiles:
    case ImplKind::kMmTilesXBcastTiles: {
      // sum_k a(i, k) * b(k, j), k ascending.
      const int64_t nk =
          NumChunks(args[0]->type.cols(), FormatOf(args[0]->format).p2);
      DenseMatrix sum;
      for (int64_t k = 0; k < nk; ++k) {
        MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, k));
        MATOPT_ASSIGN_OR_RETURN(const EngineTuple* tb, env.Find(1, k, t.c));
        if (sum.size() == 0) sum = DenseMatrix::Pooled(ta->rows, tb->cols);
        GemmAccumulate(*ta->dense, *tb->dense, &sum);
      }
      env.Emit(idx, std::move(sum));
      return Status::OK();
    }
    case ImplKind::kMmColStripsXRowStripsOuterSum: {
      DenseMatrix sum =
          DenseMatrix::Pooled(args[0]->type.rows(), args[1]->type.cols());
      for (const EngineTuple& ta : env.gathered[0]) {
        MATOPT_ASSIGN_OR_RETURN(const EngineTuple* tb, env.Find(1, ta.c, 0));
        GemmAccumulate(*ta.dense, *tb->dense, &sum);
      }
      env.Emit(idx, std::move(sum));
      return Status::OK();
    }
    case ImplKind::kMmRowStripsXBcastColStrips:
    case ImplKind::kMmSpRowStripsXTiles: {
      // Each rhs block's product accumulates straight into a view of its
      // column window of the output strip; a sparse strip multiplies the
      // column slice matching the tile's rows.
      const ChunkDims bd =
          ChunkDimsFor(args[1]->type, FormatOf(args[1]->format));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, 0));
      DenseMatrix strip = DenseMatrix::Pooled(ta->rows, args[1]->type.cols());
      for (const EngineTuple& tb : env.gathered[1]) {
        DenseBlockView window =
            strip.MutableBlock(0, tb.c * bd.cols, ta->rows, tb.cols);
        if (kind == ImplKind::kMmRowStripsXBcastColStrips) {
          GemmAccumulate(*ta->dense, *tb.dense, window);
        } else {
          SparseMatrix slice = ta->sparse->ColSlice(tb.r * bd.rows, tb.rows);
          SpMmAccumulate(slice, *tb.dense, window);
          slice.Recycle();
        }
      }
      env.Emit(idx, std::move(strip));
      return Status::OK();
    }
    case ImplKind::kAddZip:
    case ImplKind::kSubZip:
    case ImplKind::kHadamardZip:
    case ImplKind::kElemDivZip:
    case ImplKind::kReluGradZip: {
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, t.c));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* tb, env.Find(1, t.r, t.c));
      const DenseMatrix& da = *ta->dense;
      const DenseMatrix& db = *tb->dense;
      DenseMatrix* dst = env.InPlace(idx);
      DenseMatrix fresh;
      switch (kind) {
        case ImplKind::kAddZip:
          dst ? AddInto(da, db, dst) : void(fresh = Add(da, db));
          break;
        case ImplKind::kSubZip:
          dst ? SubInto(da, db, dst) : void(fresh = Sub(da, db));
          break;
        case ImplKind::kHadamardZip:
          dst ? HadamardInto(da, db, dst) : void(fresh = Hadamard(da, db));
          break;
        case ImplKind::kElemDivZip:
          dst ? ElemDivInto(da, db, dst) : void(fresh = ElemDiv(da, db));
          break;
        default:
          dst ? ReluGradInto(da, db, dst) : void(fresh = ReluGrad(da, db));
          break;
      }
      env.Emit(idx, std::move(dst ? *dst : fresh));
      return Status::OK();
    }
    case ImplKind::kAddSparseZip: {
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, t.c));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* tb, env.Find(1, t.r, t.c));
      env.EmitSparse(idx, SpAdd(*ta->sparse, *tb->sparse));
      return Status::OK();
    }
    case ImplKind::kScalarMulMap:
    case ImplKind::kReluMap:
    case ImplKind::kSigmoidMap:
    case ImplKind::kExpMap:
    case ImplKind::kSoftmaxRowStrips:
    case ImplKind::kSoftmaxSingle: {
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, t.c));
      const double s = env.stage.vertex->scalar;
      if (FormatOf(args[0]->format).sparse()) {
        env.EmitSparse(idx, ta->sparse->Scaled(s));
        return Status::OK();
      }
      const DenseMatrix& da = *ta->dense;
      DenseMatrix* dst = env.InPlace(idx);
      DenseMatrix fresh;
      switch (kind) {
        case ImplKind::kScalarMulMap:
          dst ? ScalarMulInto(da, s, dst) : void(fresh = ScalarMul(da, s));
          break;
        case ImplKind::kReluMap:
          dst ? ReluInto(da, dst) : void(fresh = Relu(da));
          break;
        case ImplKind::kSigmoidMap:
          dst ? SigmoidInto(da, dst) : void(fresh = Sigmoid(da));
          break;
        case ImplKind::kExpMap:
          dst ? ExpInto(da, dst) : void(fresh = Exp(da));
          break;
        default:
          dst ? SoftmaxInto(da, dst) : void(fresh = Softmax(da));
          break;
      }
      env.Emit(idx, std::move(dst ? *dst : fresh));
      return Status::OK();
    }
    case ImplKind::kTransposeSingle:
    case ImplKind::kTransposeRowToCol:
    case ImplKind::kTransposeColToRow:
    case ImplKind::kTransposeTiles: {
      // Out tuple (r, c) is the transpose of arg tuple (c, r) under every
      // layout pairing (strips keep their 0 index on the other side).
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* src, env.Find(0, t.c, t.r));
      env.Emit(idx, Transpose(*src->dense));
      return Status::OK();
    }
    case ImplKind::kRowSumRowStrips:
    case ImplKind::kRowSumTilesAgg:
    case ImplKind::kRowSumSingle:
    case ImplKind::kColSumColStrips:
    case ImplKind::kColSumTilesAgg:
    case ImplKind::kColSumSingle: {
      // Partial vectors of the out tuple's group, merged in place in key
      // order.
      const bool row = kind == ImplKind::kRowSumRowStrips ||
                       kind == ImplKind::kRowSumTilesAgg ||
                       kind == ImplKind::kRowSumSingle;
      DenseMatrix sum;
      bool first = true;
      for (const EngineTuple& src : env.gathered[0]) {
        if (row ? src.r != t.r : src.c != t.c) continue;
        DenseMatrix part = row ? RowSum(*src.dense) : ColSum(*src.dense);
        if (first) {
          sum = std::move(part);
          first = false;
        } else {
          AddInto(sum, part, &sum);
          part.Recycle();
        }
      }
      if (first) {
        return Status::Internal("reduction has no input for out tuple (" +
                                std::to_string(t.r) + "," +
                                std::to_string(t.c) + ")");
      }
      env.Emit(idx, std::move(sum));
      return Status::OK();
    }
    case ImplKind::kBroadcastRowAddBcastVec: {
      const ChunkDims ad =
          ChunkDimsFor(args[0]->type, FormatOf(args[0]->format));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* ta, env.Find(0, t.r, t.c));
      MATOPT_ASSIGN_OR_RETURN(const EngineTuple* vec, env.Find(1, 0, 0));
      DenseMatrix slice = vec->dense->Block(0, t.c * ad.cols, 1, t.cols);
      DenseMatrix* dst = env.InPlace(idx);
      DenseMatrix fresh;
      dst ? BroadcastRowAddInto(*ta->dense, slice, dst)
          : void(fresh = BroadcastRowAdd(*ta->dense, slice));
      env.Emit(idx, std::move(dst ? *dst : fresh));
      return Status::OK();
    }
    case ImplKind::kInverseSingleLu:
    case ImplKind::kInverseGatherLu:
    case ImplKind::kGpuInverseSingleLu: {
      const ChunkDims gd =
          ChunkDimsFor(args[0]->type, FormatOf(args[0]->format));
      DenseMatrix whole(args[0]->type.rows(), args[0]->type.cols());
      for (const EngineTuple& src : env.gathered[0]) {
        if (src.dense != nullptr) {
          whole.SetBlock(src.r * gd.rows, src.c * gd.cols, *src.dense);
        } else {
          whole.SetBlock(src.r * gd.rows, src.c * gd.cols,
                         src.sparse->ToDense());
        }
      }
      MATOPT_ASSIGN_OR_RETURN(DenseMatrix inv, Inverse(whole));
      env.Emit(idx, std::move(inv));
      return Status::OK();
    }
  }
  return Status::Internal("unknown implementation kind");
}

/// The transformation entry: each target chunk is assembled from the
/// overlapping windows of the source chunks, one row span at a time.
/// Dense sources are read in place; a sparse source is densified once.
void ComputeRechunk(const Relation& input,
                    std::span<const EngineTuple> sources,
                    const Relation& skeleton,
                    const std::vector<int>& out_indices, PayloadSlots* out) {
  const ChunkDims sd = ChunkDimsFor(input.type, FormatOf(input.format));
  const ChunkDims dd = ChunkDimsFor(skeleton.type, FormatOf(skeleton.format));
  const bool sparse_out = FormatOf(skeleton.format).sparse();
  std::vector<DenseMatrix> densified(sources.size());
  ParallelFor(0, static_cast<int64_t>(sources.size()), 1,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  if (sources[i].dense == nullptr) {
                    densified[i] = sources[i].sparse->ToDense();
                  }
                }
              });
  auto rechunk = [&](int idx) {
    const EngineTuple& t = skeleton.tuples[idx];
    const int64_t dr0 = t.r * dd.rows;
    const int64_t dc0 = t.c * dd.cols;
    DenseMatrix block = DenseMatrix::Pooled(t.rows, t.cols);
    for (size_t k = 0; k < sources.size(); ++k) {
      const EngineTuple& s = sources[k];
      const int64_t sr0 = s.r * sd.rows;
      const int64_t sc0 = s.c * sd.cols;
      const int64_t r_lo = std::max(sr0, dr0);
      const int64_t r_hi = std::min(sr0 + s.rows, dr0 + t.rows);
      const int64_t c_lo = std::max(sc0, dc0);
      const int64_t c_hi = std::min(sc0 + s.cols, dc0 + t.cols);
      if (r_lo >= r_hi || c_lo >= c_hi) continue;
      const DenseMatrix& src = s.dense != nullptr ? *s.dense : densified[k];
      for (int64_t r = r_lo; r < r_hi; ++r) {
        std::copy_n(src.row(r - sr0) + (c_lo - sc0), c_hi - c_lo,
                    block.row(r - dr0) + (c_lo - dc0));
      }
    }
    if (sparse_out) {
      out->sparse[idx] =
          std::make_shared<SparseMatrix>(SparseMatrix::FromDense(block));
      block.Recycle();
    } else {
      out->dense[idx] = std::make_shared<DenseMatrix>(std::move(block));
    }
  };
  ParallelFor(0, static_cast<int64_t>(out_indices.size()), 1,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) rechunk(out_indices[i]);
              });
}

}  // namespace

TupleMap MapTuples(std::span<const EngineTuple> tuples) {
  TupleMap map;
  map.reserve(tuples.size());
  for (const EngineTuple& t : tuples) map[TupleKey(t.r, t.c)] = &t;
  return map;
}

Status ComputeTuples(const TupleStage& stage,
                     const std::vector<std::span<const EngineTuple>>& gathered,
                     const Relation& skeleton,
                     const std::vector<int>& out_indices,
                     const InPlaceTargets* in_place, PayloadSlots* out) {
  if (!stage.kind.has_value()) {
    ComputeRechunk(*stage.args[0], gathered[0], skeleton, out_indices, out);
    return Status::OK();
  }
  SlotEnv env{stage, gathered, {}, skeleton, in_place, out};
  env.maps.reserve(gathered.size());
  for (std::span<const EngineTuple> arg : gathered) {
    env.maps.push_back(MapTuples(arg));
  }
  std::vector<Status> status(out_indices.size());
  ParallelFor(0, static_cast<int64_t>(out_indices.size()), 1,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  status[i] = ComputeSlot(env, *stage.kind, out_indices[i]);
                }
              });
  for (const Status& s : status) MATOPT_RETURN_IF_ERROR(s);
  return Status::OK();
}

void InstallPayloads(PayloadSlots slots, bool measure_sparsity,
                     Relation* skeleton) {
  const bool sparse = FormatOf(skeleton->format).sparse();
  skeleton->has_data = true;
  int64_t nnz = 0;
  for (size_t i = 0; i < skeleton->tuples.size(); ++i) {
    EngineTuple& t = skeleton->tuples[i];
    if (!sparse) {
      t.dense = slots.dense[i] != nullptr
                    ? std::move(slots.dense[i])
                    : std::make_shared<DenseMatrix>(t.rows, t.cols);
      continue;
    }
    if (slots.sparse[i] != nullptr) {
      t.sparse = std::move(slots.sparse[i]);
      t.sparsity = t.sparse->Sparsity();
    } else {
      t.sparse = std::make_shared<SparseMatrix>(t.rows, t.cols);
      t.sparsity = 0.0;
    }
    nnz += t.sparse->nnz();
  }
  if (sparse && measure_sparsity) {
    const int64_t total = skeleton->type.rows() * skeleton->type.cols();
    skeleton->sparsity = total == 0 ? 0.0 : static_cast<double>(nnz) / total;
  }
}

Status ComputeLocal(const TupleStage& stage, const InPlaceTargets* in_place,
                    bool measure_sparsity, Relation* skeleton) {
  std::vector<std::span<const EngineTuple>> gathered;
  for (const Relation* arg : stage.args) gathered.emplace_back(arg->tuples);
  std::vector<int> all(skeleton->tuples.size());
  std::iota(all.begin(), all.end(), 0);
  PayloadSlots slots(all.size());
  MATOPT_RETURN_IF_ERROR(
      ComputeTuples(stage, gathered, *skeleton, all, in_place, &slots));
  InstallPayloads(std::move(slots), measure_sparsity, skeleton);
  return Status::OK();
}

}  // namespace matopt
