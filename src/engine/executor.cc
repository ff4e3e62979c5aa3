#include "engine/executor.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "core/fusion/fusion.h"
#include "dist/runtime.h"
#include "engine/operators.h"
#include "engine/tuple_compute.h"
#include "la/fused.h"

namespace matopt {

namespace {

// Every Exec* below is the metadata half of one implementation: it charges
// the simulated stages (StageAccountant), tallies the deterministic memory
// fields, decides payload stealing and returns the output skeleton. It
// never touches a payload. ExecuteImpl then fills the skeleton through the
// shared tuple-compute table (engine/tuple_compute.h) when the inputs carry
// data. Accounting runs on the coordinating thread, so ExecStats totals are
// exactly reproducible at any thread count.

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

/// Shared execution context for one atomic computation implementation.
struct Ctx {
  const ClusterConfig& cluster;
  ExecStats* stats;
  const Vertex& vertex;
  FormatId out_format;
  bool data;         // inputs carry real payloads
  bool gpu = false;  // offload arithmetic to the worker's accelerator
  InPlaceTargets* in_place = nullptr;  // data mode: stolen output buffers

  int workers() const { return cluster.num_workers; }
  MemoryStats* mem() const { return &stats->memory; }
};

double TupleBytes(const EngineTuple& t) {
  return 8.0 * static_cast<double>(t.rows) * static_cast<double>(t.cols);
}

/// The output relation's metadata: deterministic chunking and placement.
Relation Skeleton(const Ctx& ctx) {
  double out_sparsity =
      FormatOf(ctx.out_format).sparse() ? ctx.vertex.sparsity : 1.0;
  return MakeDryRelation(ctx.vertex.type, ctx.out_format, out_sparsity,
                         ctx.cluster);
}

/// Whether arg tuple i's dense payload may become out tuple i's buffer.
/// The plan proved the producer dead after this edge (`owned`), the tuple
/// lines up with the out tuple, and in data mode the relation holds the
/// only reference (payloads shared via a passthrough earlier in the plan
/// are left alone). Dry-run mode counts the plan-level decision as a
/// projection so EXPLAIN reports reuse at paper scale.
bool StealDecision(const Ctx& ctx, const ExecInput& arg, const Relation& out,
                   size_t i) {
  if (arg.owned == nullptr || i >= out.tuples.size()) return false;
  const EngineTuple& t = arg.owned->tuples[i];
  if (t.r != out.tuples[i].r || t.c != out.tuples[i].c) return false;
  if (!ctx.data) return true;
  return t.dense != nullptr && t.dense.use_count() == 1;
}

/// Element-wise stage output: per arg-0 tuple, decides whether the kernel
/// reuses the dying payload in place (moved) or writes a fresh buffer
/// (copied), tallies it and, in data mode, hands the stolen buffer to the
/// compute table. The refcount-1 check runs here, before any parallel work.
/// A stolen payload is mutable: every payload is created via
/// make_shared<DenseMatrix> (the object itself is not const).
Relation ElementwiseOutput(const Ctx& ctx, const ExecInput& a_in) {
  Relation out = Skeleton(ctx);
  const Relation& a = *a_in.rel;
  if (ctx.data) ctx.in_place->resize(out.tuples.size());
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    if (StealDecision(ctx, a_in, out, i)) {
      if (ctx.data) {
        (*ctx.in_place)[i] =
            std::const_pointer_cast<DenseMatrix>(a_in.owned->tuples[i].dense);
      }
      ctx.mem()->bytes_moved += TupleBytes(a.tuples[i]);
      ++ctx.mem()->inplace_kernels;
      ++ctx.mem()->allocs_avoided;
    } else {
      ctx.mem()->bytes_copied += TupleBytes(a.tuples[i]);
    }
  }
  return out;
}

/// Output skeleton for a fused-group member: its value was already applied
/// in place over the group base's output, so ExecuteImpl shares payloads
/// from the accumulator argument — a pointer transfer per tuple, no
/// allocation, no copy. Those never-materialized bytes are the fusion win
/// and are tallied as such (identically in dry and data mode — the
/// decision is plan-level).
Relation PassthroughOutput(const Ctx& ctx) {
  Relation out = Skeleton(ctx);
  for (const EngineTuple& t : out.tuples) {
    ctx.mem()->fused_bytes_avoided += TupleBytes(t);
    ++ctx.mem()->moved_payloads;
    ++ctx.mem()->fused_kernels;
  }
  return out;
}

/// View accumulation: each (lhs tuple, rhs block) product lands directly
/// in a window of the output strip instead of a fresh block, `copies`
/// block-sized writes avoided per pair.
void CountViewAccumulation(const Ctx& ctx, const Relation& a,
                           const Relation& b, double copies) {
  for (const EngineTuple& ta : a.tuples) {
    for (const EngineTuple& tb : b.tuples) {
      ctx.mem()->bytes_moved +=
          copies * (8.0 * static_cast<double>(ta.rows) * tb.cols);
      ++ctx.mem()->allocs_avoided;
    }
  }
}

/// Charges arithmetic either to the CPU or, for GPU implementations, to
/// the device (plus the host<->device staging transfer).
void ChargeCompute(const Ctx& ctx, StageAccountant& acct, int worker,
                   double flops, double staged_bytes) {
  if (ctx.gpu) {
    acct.AddGpuFlops(worker, flops);
    acct.AddPcie(worker, staged_bytes);
  } else {
    acct.AddFlops(worker, flops);
  }
}

double OutTupleBytes(const Ctx& ctx) {
  ChunkDims d = ChunkDimsFor(ctx.vertex.type, FormatOf(ctx.out_format));
  return 8.0 * static_cast<double>(d.rows) * static_cast<double>(d.cols);
}

double TotalOutBytes(const Ctx& ctx) {
  return ctx.vertex.type.DenseBytes();
}

/// Re-partition accounting for one tuple in a shuffle join: the tuple
/// crosses the network (worst case) and stays resident on its worker.
void AccountRepartition(StageAccountant& acct, const EngineTuple& t) {
  acct.AddNet(t.worker, t.Bytes(false));
}

// ---------------------------------------------------------------------
// MatMul implementations.

Result<Relation> ExecMmLocalSingle(const Ctx& ctx, const Relation& a,
                                   const Relation& b, bool sparse_lhs) {
  const EngineTuple& ta = a.tuples[0];
  const EngineTuple& tb = b.tuples[0];
  StageAccountant acct(ctx.cluster, ctx.stats, "mm:local-single");
  acct.AddNet(tb.worker, tb.Bytes(FormatOf(b.format).sparse()));
  double flops = 2.0 * static_cast<double>(ta.rows) *
                 static_cast<double>(ta.cols) * static_cast<double>(tb.cols) *
                 (sparse_lhs ? ta.sparsity : 1.0);
  ChargeCompute(ctx, acct, ta.worker, flops,
                ta.Bytes(sparse_lhs) + tb.Bytes(false) + TotalOutBytes(ctx));
  acct.AddWorkerMem(ta.worker,
                    ta.Bytes(sparse_lhs) + tb.Bytes(false) + TotalOutBytes(ctx));
  acct.AddDisk(ta.worker, TotalOutBytes(ctx));
  acct.AddTuples(3);
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

/// row-strips (dense or sparse CSR) x broadcast single -> row strips.
Result<Relation> ExecMmStripsBcastSingle(const Ctx& ctx, const Relation& a,
                                         const Relation& b, bool sparse_lhs) {
  const EngineTuple& tb = b.tuples[0];
  StageAccountant acct(ctx.cluster, ctx.stats, "mm:strips*bcast-single");
  acct.Broadcast(tb.worker, tb.Bytes(false));
  double out_tuple_bytes = OutTupleBytes(ctx);
  for (const EngineTuple& t : a.tuples) {
    double flops = 2.0 * static_cast<double>(t.rows) *
                   static_cast<double>(t.cols) *
                   static_cast<double>(tb.cols) *
                   (sparse_lhs ? t.sparsity : 1.0);
    ChargeCompute(ctx, acct, t.worker, flops,
                  t.Bytes(sparse_lhs) + tb.Bytes(false) + out_tuple_bytes);
    acct.PeakWorkerMem(t.worker, t.Bytes(sparse_lhs) + out_tuple_bytes);
    acct.AddDisk(t.worker, out_tuple_bytes);
  }
  acct.AddTuples(2.0 * a.tuples.size() + ctx.workers());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

/// broadcast single (dense or sparse) x col-strips -> col strips.
Result<Relation> ExecMmBcastSingleStrips(const Ctx& ctx, const Relation& a,
                                         const Relation& b, bool sparse_lhs) {
  const EngineTuple& ta = a.tuples[0];
  StageAccountant acct(ctx.cluster, ctx.stats, "mm:bcast-single*strips");
  acct.Broadcast(ta.worker, ta.Bytes(sparse_lhs));
  double out_tuple_bytes = OutTupleBytes(ctx);
  for (const EngineTuple& t : b.tuples) {
    double flops = 2.0 * static_cast<double>(ta.rows) *
                   static_cast<double>(ta.cols) * static_cast<double>(t.cols) *
                   (sparse_lhs ? ta.sparsity : 1.0);
    ChargeCompute(ctx, acct, t.worker, flops,
                  ta.Bytes(sparse_lhs) + t.Bytes(false) + out_tuple_bytes);
    acct.PeakWorkerMem(t.worker, t.Bytes(false) + out_tuple_bytes);
    acct.AddDisk(t.worker, out_tuple_bytes);
  }
  acct.AddTuples(2.0 * b.tuples.size() + ctx.workers());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

/// row-strips x col-strips cross join -> tiles, no aggregation.
Result<Relation> ExecMmCrossStrips(const Ctx& ctx, const Relation& a,
                                   const Relation& b) {
  bool bcast_a = a.TotalBytes() <= b.TotalBytes();
  const Relation& small = bcast_a ? a : b;
  StageAccountant acct(ctx.cluster, ctx.stats, "mm:cross-strips");
  for (const EngineTuple& t : small.tuples) {
    acct.Broadcast(t.worker, t.Bytes(false));
  }
  double out_tuple_bytes = OutTupleBytes(ctx);
  for (const EngineTuple& ta : a.tuples) {
    for (const EngineTuple& tb : b.tuples) {
      double flops = 2.0 * static_cast<double>(ta.rows) *
                     static_cast<double>(ta.cols) *
                     static_cast<double>(tb.cols);
      int compute_worker = bcast_a ? tb.worker : ta.worker;
      acct.AddFlops(compute_worker, flops);
      acct.PeakWorkerMem(compute_worker, ta.Bytes(false) + tb.Bytes(false) +
                                             out_tuple_bytes);
      int out_worker = WorkerFor(ta.r, tb.c, ctx.workers());
      if (out_worker != compute_worker) {
        acct.AddNet(compute_worker, out_tuple_bytes);
      }
      acct.AddDisk(out_worker, out_tuple_bytes);
    }
  }
  acct.AddTuples(static_cast<double>(a.tuples.size()) + b.tuples.size() +
                 static_cast<double>(a.tuples.size()) * b.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

/// tiles x tiles shuffle join + group-by SUM; `bcast` selects the
/// broadcast variants (0 = plain shuffle, 1 = broadcast lhs, 2 = rhs).
Result<Relation> ExecMmTiles(const Ctx& ctx, const Relation& a,
                             const Relation& b, int bcast) {
  const Format& fa = FormatOf(a.format);
  const Format& fb = FormatOf(b.format);
  int64_t nr = NumChunks(a.type.rows(), fa.p1);
  int64_t nk = NumChunks(a.type.cols(), fa.p2);
  int64_t nc = NumChunks(b.type.cols(), fb.p2);
  double out_tuple_bytes = OutTupleBytes(ctx);

  StageAccountant join(ctx.cluster, ctx.stats,
                       bcast == 0 ? "mm:tiles-shuffle-join"
                                  : "mm:tiles-bcast-join");
  if (bcast == 0) {
    // Re-partition both inputs by the inner chunk index.
    for (const EngineTuple& t : a.tuples) AccountRepartition(join, t);
    for (const EngineTuple& t : b.tuples) AccountRepartition(join, t);
  } else {
    const Relation& small = bcast == 1 ? a : b;
    for (const EngineTuple& t : small.tuples) {
      join.Broadcast(t.worker, t.Bytes(false));
    }
  }

  // Partial products. With a shuffle join the partials are materialized
  // and shuffled to the group-by workers (SimSQL behaviour: this is the
  // intermediate-data blow-up that crashes over-tiled plans); with a
  // broadcast join they fold into a per-worker pre-aggregate.
  double partial_flops_per_entry = 2.0 * static_cast<double>(fa.p2);
  double partials = static_cast<double>(nr) * nk * nc;
  for (int64_t i = 0; i < nr; ++i) {
    for (int64_t k = 0; k < nk; ++k) {
      for (int64_t j = 0; j < nc; ++j) {
        // Plain shuffle joins co-locate on the inner chunk index; the
        // broadcast variants compute at the large side's tuple homes.
        int join_worker = bcast == 0 ? WorkerFor(0, k, ctx.workers())
                          : bcast == 1
                              ? WorkerFor(k, j, ctx.workers())  // rhs home
                              : WorkerFor(i, k, ctx.workers());  // lhs home
        double flops = partial_flops_per_entry * out_tuple_bytes / 8.0;
        join.AddFlops(join_worker, flops);
        join.PeakWorkerMem(join_worker,
                           8.0 * static_cast<double>(fa.p1) * fa.p2 +
                               8.0 * static_cast<double>(fb.p1) * fb.p2 +
                               out_tuple_bytes);
        int out_worker = WorkerFor(i, j, ctx.workers());
        if (bcast == 0) {
          join.AddNet(join_worker, out_tuple_bytes);
          join.AddDisk(out_worker, out_tuple_bytes);  // materialized partial
          join.AddWorkerSpill(out_worker, out_tuple_bytes);
        }
      }
    }
  }
  join.AddTuples(static_cast<double>(a.tuples.size()) + b.tuples.size() +
                 (bcast == 0 ? partials : 0.0));
  MATOPT_RETURN_IF_ERROR(join.Commit());

  StageAccountant agg(ctx.cluster, ctx.stats, "mm:tiles-agg");
  for (int64_t i = 0; i < nr; ++i) {
    for (int64_t j = 0; j < nc; ++j) {
      int out_worker = WorkerFor(i, j, ctx.workers());
      agg.AddFlops(out_worker, static_cast<double>(nk) * out_tuple_bytes / 8.0);
      agg.AddWorkerMem(out_worker, 2.0 * out_tuple_bytes);
      agg.AddDisk(out_worker, out_tuple_bytes);
      if (bcast != 0) {
        // Pre-aggregated partials still shuffle once per contributing
        // worker (bounded by nk and the cluster size).
        double contributions =
            std::min<double>(static_cast<double>(nk), ctx.workers());
        agg.AddNet(out_worker, contributions * out_tuple_bytes);
      }
    }
  }
  agg.AddTuples(static_cast<double>(nr) * nc +
                (bcast == 0 ? partials : 0.0));
  MATOPT_RETURN_IF_ERROR(agg.Commit());
  return Skeleton(ctx);
}

/// col-strips x row-strips joined on the strip index; every pair yields a
/// full-size outer product that is SUM-aggregated into a single tuple.
Result<Relation> ExecMmOuterSum(const Ctx& ctx, const Relation& a,
                                const Relation& b) {
  double out_bytes = TotalOutBytes(ctx);
  int owner = WorkerFor(0, 0, ctx.workers());

  StageAccountant join(ctx.cluster, ctx.stats, "mm:outer-join");
  for (const EngineTuple& t : a.tuples) join.AddNet(t.worker, t.Bytes(false));
  for (const EngineTuple& t : b.tuples) join.AddNet(t.worker, t.Bytes(false));
  for (const EngineTuple& t : a.tuples) {
    int worker_k = WorkerFor(t.c, t.c, ctx.workers());
    double flops = 2.0 * static_cast<double>(a.type.rows()) *
                   static_cast<double>(t.cols) *
                   static_cast<double>(b.type.cols());
    join.AddFlops(worker_k, flops);
    join.PeakWorkerMem(worker_k, 2.0 * t.Bytes(false) + out_bytes);
    join.AddNet(worker_k, out_bytes);  // ship the partial to the aggregator
    join.AddDisk(owner, out_bytes);    // materialized at the aggregator
    join.AddWorkerSpill(owner, out_bytes);
  }
  join.AddTuples(static_cast<double>(a.tuples.size()) + b.tuples.size() +
                 a.tuples.size());
  MATOPT_RETURN_IF_ERROR(join.Commit());

  StageAccountant agg(ctx.cluster, ctx.stats, "mm:outer-agg");
  agg.AddFlops(owner, static_cast<double>(a.tuples.size()) * out_bytes / 8.0);
  agg.AddWorkerMem(owner, 2.0 * out_bytes);
  agg.AddDisk(owner, out_bytes);
  agg.AddTuples(1);
  MATOPT_RETURN_IF_ERROR(agg.Commit());
  return Skeleton(ctx);
}

/// row-strips x broadcast whole col-striped rhs -> row strips.
Result<Relation> ExecMmStripsBcastColStrips(const Ctx& ctx, const Relation& a,
                                            const Relation& b) {
  StageAccountant acct(ctx.cluster, ctx.stats, "mm:strips*bcast-colstrips");
  for (const EngineTuple& t : b.tuples) acct.Broadcast(t.worker, t.Bytes(false));
  double out_tuple_bytes = OutTupleBytes(ctx);
  for (const EngineTuple& t : a.tuples) {
    double flops = 2.0 * static_cast<double>(t.rows) *
                   static_cast<double>(t.cols) *
                   static_cast<double>(b.type.cols());
    acct.AddFlops(t.worker, flops);
    acct.PeakWorkerMem(t.worker, t.Bytes(false) + out_tuple_bytes);
    acct.AddDisk(t.worker, out_tuple_bytes);
  }
  acct.AddTuples(2.0 * a.tuples.size() +
                 static_cast<double>(b.tuples.size()) * ctx.workers());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  CountViewAccumulation(ctx, a, b, 1.0);
  return Skeleton(ctx);
}

/// sparse CSR row strips x dense tiles -> dense row strips (shuffle+agg).
Result<Relation> ExecMmSpStripsTiles(const Ctx& ctx, const Relation& a,
                                     const Relation& b) {
  const Format& fb = FormatOf(b.format);
  int64_t nk = NumChunks(b.type.rows(), fb.p1);
  int64_t nc = NumChunks(b.type.cols(), fb.p2);
  double out_tuple_bytes = OutTupleBytes(ctx);
  double partial_bytes =
      out_tuple_bytes / std::max<int64_t>(1, nc);  // one (i,k,j) block

  StageAccountant join(ctx.cluster, ctx.stats, "mm:sp-strips*tiles-join");
  for (const EngineTuple& t : a.tuples) join.Broadcast(t.worker, t.Bytes(true));
  for (const EngineTuple& ta : a.tuples) {
    for (const EngineTuple& tb : b.tuples) {
      join.PeakWorkerMem(tb.worker, tb.Bytes(false) + partial_bytes);
      double flops = 2.0 * ta.sparsity * static_cast<double>(ta.rows) *
                     static_cast<double>(tb.rows) *
                     static_cast<double>(tb.cols);
      join.AddFlops(tb.worker, flops);
      int out_worker = WorkerFor(ta.r, 0, ctx.workers());
      join.AddNet(tb.worker, partial_bytes);
      join.AddDisk(out_worker, partial_bytes);
      join.AddWorkerSpill(out_worker, partial_bytes);
    }
  }
  join.AddTuples(static_cast<double>(a.tuples.size()) + b.tuples.size() +
                 static_cast<double>(a.tuples.size()) * b.tuples.size());
  MATOPT_RETURN_IF_ERROR(join.Commit());

  StageAccountant agg(ctx.cluster, ctx.stats, "mm:sp-strips*tiles-agg");
  for (const EngineTuple& ta : a.tuples) {
    int out_worker = WorkerFor(ta.r, 0, ctx.workers());
    agg.AddFlops(out_worker, static_cast<double>(nk) * out_tuple_bytes / 8.0);
    agg.AddWorkerMem(out_worker, 2.0 * out_tuple_bytes);
    agg.AddDisk(out_worker, out_tuple_bytes);
  }
  agg.AddTuples(static_cast<double>(a.tuples.size()));
  MATOPT_RETURN_IF_ERROR(agg.Commit());
  // Accumulating into a view saves extracting the block and copying it
  // back: two block copies per pair.
  CountViewAccumulation(ctx, a, b, 2.0);
  return Skeleton(ctx);
}

// ---------------------------------------------------------------------
// Element-wise, map, reduction, and inverse implementations.

Result<Relation> ExecZip(const Ctx& ctx, ImplKind kind, const ExecInput& a_in,
                         int passthrough_arg) {
  const Relation& a = *a_in.rel;
  StageAccountant acct(ctx.cluster, ctx.stats, "zip");
  for (const EngineTuple& t : a.tuples) {
    double entries = static_cast<double>(t.rows) * t.cols;
    acct.AddFlops(t.worker,
                  kind == ImplKind::kReluGradZip ? 2.0 * entries : entries);
    acct.PeakWorkerMem(t.worker, 3.0 * t.Bytes(false));
    acct.AddDisk(t.worker, t.Bytes(false));
  }
  acct.AddTuples(3.0 * a.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  if (passthrough_arg >= 0) return PassthroughOutput(ctx);
  return ElementwiseOutput(ctx, a_in);
}

Result<Relation> ExecSparseAdd(const Ctx& ctx, const Relation& a,
                               const Relation& b) {
  StageAccountant acct(ctx.cluster, ctx.stats, "zip:sparse-add");
  for (const EngineTuple& t : a.tuples) {
    double entries = static_cast<double>(t.rows) * t.cols;
    acct.AddFlops(t.worker, entries * (t.sparsity + b.sparsity));
    acct.PeakWorkerMem(t.worker, 3.0 * t.Bytes(true));
    acct.AddDisk(t.worker, t.Bytes(true));
  }
  acct.AddTuples(3.0 * a.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

Result<Relation> ExecMap(const Ctx& ctx, ImplKind kind, const ExecInput& a_in,
                         int passthrough_arg) {
  const Relation& a = *a_in.rel;
  bool sparse = FormatOf(a.format).sparse();
  StageAccountant acct(ctx.cluster, ctx.stats, "map");
  for (const EngineTuple& t : a.tuples) {
    double entries = static_cast<double>(t.rows) * t.cols *
                     (sparse ? t.sparsity : 1.0);
    double per_entry = (kind == ImplKind::kSigmoidMap ||
                        kind == ImplKind::kExpMap ||
                        kind == ImplKind::kSoftmaxRowStrips ||
                        kind == ImplKind::kSoftmaxSingle)
                           ? 4.0
                           : 1.0;
    acct.AddFlops(t.worker, per_entry * entries);
    acct.PeakWorkerMem(t.worker, 2.0 * t.Bytes(sparse));
    acct.AddDisk(t.worker, t.Bytes(sparse));
  }
  acct.AddTuples(2.0 * a.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());

  // A fused-group member (e.g. Relu applied in place after a matmul base)
  // keeps the accounting above and passes payloads through.
  if (passthrough_arg >= 0) return PassthroughOutput(ctx);
  return sparse ? Skeleton(ctx) : ElementwiseOutput(ctx, a_in);
}

Result<Relation> ExecTranspose(const Ctx& ctx, ImplKind kind,
                               const Relation& a) {
  StageAccountant acct(ctx.cluster, ctx.stats, "transpose");
  for (const EngineTuple& t : a.tuples) {
    acct.AddFlops(t.worker, static_cast<double>(t.rows) * t.cols);
    acct.PeakWorkerMem(t.worker, 2.0 * t.Bytes(false));
    acct.AddDisk(t.worker, t.Bytes(false));
    // Swapping the chunk key usually moves the tuple to another worker.
    int64_t out_r = t.c;
    int64_t out_c = t.r;
    if (kind == ImplKind::kTransposeRowToCol) {
      out_r = 0;
      out_c = t.r;
    } else if (kind == ImplKind::kTransposeColToRow) {
      out_r = t.c;
      out_c = 0;
    }
    int out_worker = WorkerFor(out_r, out_c, ctx.workers());
    if (out_worker != t.worker) acct.AddNet(t.worker, t.Bytes(false));
  }
  acct.AddTuples(2.0 * a.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

Result<Relation> ExecReduce(const Ctx& ctx, ImplKind kind, const Relation& a) {
  bool row = (kind == ImplKind::kRowSumRowStrips ||
              kind == ImplKind::kRowSumTilesAgg ||
              kind == ImplKind::kRowSumSingle);
  bool agg = (kind == ImplKind::kRowSumTilesAgg ||
              kind == ImplKind::kColSumTilesAgg);
  StageAccountant acct(ctx.cluster, ctx.stats, row ? "row_sum" : "col_sum");
  double out_tuple_bytes = OutTupleBytes(ctx);
  for (const EngineTuple& t : a.tuples) {
    acct.AddFlops(t.worker, static_cast<double>(t.rows) * t.cols);
    acct.PeakWorkerMem(t.worker, t.Bytes(false) + out_tuple_bytes);
    if (agg) acct.AddNet(t.worker, out_tuple_bytes);  // partial vectors
  }
  acct.AddTuples(2.0 * a.tuples.size());
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  if (agg) {
    StageAccountant agg_acct(ctx.cluster, ctx.stats, "sum-agg");
    for (const EngineTuple& t : a.tuples) {
      int64_t group = row ? t.r : t.c;
      int w = row ? WorkerFor(group, 0, ctx.workers())
                  : WorkerFor(0, group, ctx.workers());
      agg_acct.AddFlops(w, out_tuple_bytes / 8.0);
      agg_acct.AddWorkerMem(w, 2.0 * out_tuple_bytes);
    }
    agg_acct.AddTuples(static_cast<double>(a.tuples.size()));
    MATOPT_RETURN_IF_ERROR(agg_acct.Commit());
  }

  // Each repeated group key costs one in-place partial-vector merge.
  std::unordered_set<uint64_t> seen;
  for (const EngineTuple& t : a.tuples) {
    if (!seen.insert(row ? TupleKey(t.r, 0) : TupleKey(0, t.c)).second) {
      ctx.mem()->bytes_moved += out_tuple_bytes;
      ++ctx.mem()->inplace_kernels;
      ++ctx.mem()->allocs_avoided;
    }
  }
  return Skeleton(ctx);
}

Result<Relation> ExecBroadcastRowAdd(const Ctx& ctx, const ExecInput& a_in,
                                     const Relation& b, int passthrough_arg) {
  const Relation& a = *a_in.rel;
  const EngineTuple& vec = b.tuples[0];
  StageAccountant acct(ctx.cluster, ctx.stats, "broadcast_row_add");
  acct.Broadcast(vec.worker, vec.Bytes(false));
  for (const EngineTuple& t : a.tuples) {
    acct.AddFlops(t.worker, static_cast<double>(t.rows) * t.cols);
    acct.PeakWorkerMem(t.worker, 2.0 * t.Bytes(false));
    acct.AddDisk(t.worker, t.Bytes(false));
  }
  acct.AddTuples(2.0 * a.tuples.size() + ctx.workers());
  MATOPT_RETURN_IF_ERROR(acct.Commit());

  // A fused-group member (the bias add ran in place at the group base)
  // keeps the accounting above and passes payloads through.
  if (passthrough_arg >= 0) return PassthroughOutput(ctx);
  return ElementwiseOutput(ctx, a_in);
}

Result<Relation> ExecInverse(const Ctx& ctx, ImplKind kind,
                             const Relation& a) {
  int owner = a.tuples.size() == 1 ? a.tuples[0].worker
                                   : WorkerFor(0, 0, ctx.workers());
  double n = static_cast<double>(a.type.rows());
  StageAccountant acct(ctx.cluster, ctx.stats, "inverse");
  if (kind == ImplKind::kInverseGatherLu) {
    for (const EngineTuple& t : a.tuples) {
      if (t.worker != owner) acct.AddNet(t.worker, t.Bytes(false));
    }
  }
  ChargeCompute(ctx, acct, owner, 2.0 * n * n * n,
                2.0 * a.type.DenseBytes());
  acct.AddWorkerMem(owner, 2.0 * a.type.DenseBytes());
  acct.AddDisk(owner, a.type.DenseBytes());
  acct.AddTuples(static_cast<double>(a.tuples.size()) + 1);
  MATOPT_RETURN_IF_ERROR(acct.Commit());
  return Skeleton(ctx);
}

/// The metadata half of ExecuteImpl: accounting, tallies and skeleton.
Result<Relation> AccountImpl(Ctx& ctx, ImplKind kind,
                             const std::vector<ExecInput>& args,
                             int passthrough_arg) {
  const Relation& a = *args[0].rel;
  switch (kind) {
    case ImplKind::kGpuMmSingleSingle:
      ctx.gpu = true;
      return ExecMmLocalSingle(ctx, a, *args[1].rel, false);
    case ImplKind::kGpuMmRowStripsXBcastSingle:
      ctx.gpu = true;
      return ExecMmStripsBcastSingle(ctx, a, *args[1].rel, false);
    case ImplKind::kGpuMmBcastSingleXColStrips:
      ctx.gpu = true;
      return ExecMmBcastSingleStrips(ctx, a, *args[1].rel, false);
    case ImplKind::kGpuInverseSingleLu:
      ctx.gpu = true;
      return ExecInverse(ctx, ImplKind::kInverseSingleLu, a);
    case ImplKind::kMmSingleSingle:
      return ExecMmLocalSingle(ctx, a, *args[1].rel, false);
    case ImplKind::kMmSpSingleXSingle:
      return ExecMmLocalSingle(ctx, a, *args[1].rel, true);
    case ImplKind::kMmRowStripsXBcastSingle:
      return ExecMmStripsBcastSingle(ctx, a, *args[1].rel, false);
    case ImplKind::kMmSpRowStripsXBcastSingle:
      return ExecMmStripsBcastSingle(ctx, a, *args[1].rel, true);
    case ImplKind::kMmBcastSingleXColStrips:
      return ExecMmBcastSingleStrips(ctx, a, *args[1].rel, false);
    case ImplKind::kMmSpSingleXColStrips:
      return ExecMmBcastSingleStrips(ctx, a, *args[1].rel, true);
    case ImplKind::kMmCrossStrips:
      return ExecMmCrossStrips(ctx, a, *args[1].rel);
    case ImplKind::kMmTilesShuffle:
      return ExecMmTiles(ctx, a, *args[1].rel, 0);
    case ImplKind::kMmBcastTilesXTiles:
      return ExecMmTiles(ctx, a, *args[1].rel, 1);
    case ImplKind::kMmTilesXBcastTiles:
      return ExecMmTiles(ctx, a, *args[1].rel, 2);
    case ImplKind::kMmColStripsXRowStripsOuterSum:
      return ExecMmOuterSum(ctx, a, *args[1].rel);
    case ImplKind::kMmRowStripsXBcastColStrips:
      return ExecMmStripsBcastColStrips(ctx, a, *args[1].rel);
    case ImplKind::kMmSpRowStripsXTiles:
      return ExecMmSpStripsTiles(ctx, a, *args[1].rel);
    case ImplKind::kAddZip:
    case ImplKind::kSubZip:
    case ImplKind::kHadamardZip:
    case ImplKind::kElemDivZip:
    case ImplKind::kReluGradZip:
      return ExecZip(ctx, kind, args[0], passthrough_arg);
    case ImplKind::kAddSparseZip:
      return ExecSparseAdd(ctx, a, *args[1].rel);
    case ImplKind::kScalarMulMap:
    case ImplKind::kReluMap:
    case ImplKind::kSigmoidMap:
    case ImplKind::kExpMap:
    case ImplKind::kSoftmaxRowStrips:
    case ImplKind::kSoftmaxSingle:
      return ExecMap(ctx, kind, args[0], passthrough_arg);
    case ImplKind::kTransposeSingle:
    case ImplKind::kTransposeRowToCol:
    case ImplKind::kTransposeColToRow:
    case ImplKind::kTransposeTiles:
      return ExecTranspose(ctx, kind, a);
    case ImplKind::kRowSumRowStrips:
    case ImplKind::kRowSumTilesAgg:
    case ImplKind::kRowSumSingle:
    case ImplKind::kColSumColStrips:
    case ImplKind::kColSumTilesAgg:
    case ImplKind::kColSumSingle:
      return ExecReduce(ctx, kind, a);
    case ImplKind::kBroadcastRowAddBcastVec:
      return ExecBroadcastRowAdd(ctx, args[0], *args[1].rel, passthrough_arg);
    case ImplKind::kInverseSingleLu:
    case ImplKind::kInverseGatherLu:
      return ExecInverse(ctx, kind, a);
  }
  return Status::Internal("unknown implementation kind");
}

/// Shares the accumulator argument's payloads into a passthrough output.
Status SharePayloads(const Relation& src, Relation* out) {
  const TupleMap m = MapTuples(src.tuples);
  out->has_data = true;
  for (EngineTuple& t : out->tuples) {
    auto it = m.find(TupleKey(t.r, t.c));
    if (it == m.end()) {
      return Status::Internal("fused passthrough is missing tuple (" +
                              std::to_string(t.r) + "," +
                              std::to_string(t.c) + ")");
    }
    t.dense = it->second->dense;
    t.sparse = it->second->sparse;
  }
  return Status::OK();
}

}  // namespace

Result<Relation> ExecuteImpl(const Catalog& catalog, ImplKind kind,
                             FormatId out_format,
                             const std::vector<const Relation*>& args,
                             const Vertex& vertex,
                             const ClusterConfig& cluster, ExecStats* stats) {
  std::vector<ExecInput> inputs(args.size());
  for (size_t i = 0; i < args.size(); ++i) inputs[i].rel = args[i];
  return ExecuteImpl(catalog, kind, out_format, inputs, vertex, cluster,
                     stats, ExecOptions{});
}

Result<Relation> ExecuteImpl(const Catalog& catalog, ImplKind kind,
                             FormatId out_format,
                             const std::vector<ExecInput>& args,
                             const Vertex& vertex,
                             const ClusterConfig& cluster, ExecStats* stats,
                             const ExecOptions& options) {
  (void)catalog;
  bool data = true;
  for (const ExecInput& in : args) data = data && in.rel->has_data;
  InPlaceTargets in_place;
  Ctx ctx{cluster, stats, vertex, out_format, data, /*gpu=*/false, &in_place};
  MATOPT_ASSIGN_OR_RETURN(
      Relation out, AccountImpl(ctx, kind, args, options.passthrough_arg));
  if (!data) return out;
  if (options.passthrough_arg >= 0) {
    MATOPT_RETURN_IF_ERROR(
        SharePayloads(*args[options.passthrough_arg].rel, &out));
    return out;
  }
  TupleStage stage{kind, &vertex, {}};
  for (const ExecInput& in : args) stage.args.push_back(in.rel);
  MATOPT_RETURN_IF_ERROR(ComputeLocal(
      stage, in_place.empty() ? nullptr : &in_place, false, &out));
  return out;
}

namespace {

/// Returns a dead relation's payload buffers to the pool. Only buffers the
/// relation exclusively owns are recycled; anything still shared (a
/// passthrough output, a caller-held input, a stolen-and-emptied payload's
/// sibling) is left to its other owners.
void RecycleRelation(Relation* rel) {
  for (EngineTuple& t : rel->tuples) {
    if (t.dense != nullptr && t.dense.use_count() == 1) {
      std::const_pointer_cast<DenseMatrix>(t.dense)->Recycle();
    }
    t.dense.reset();
    if (t.sparse != nullptr && t.sparse.use_count() == 1) {
      std::const_pointer_cast<SparseMatrix>(t.sparse)->Recycle();
    }
    t.sparse.reset();
  }
}

/// Translates one fused-group member vertex into its la-level step
/// descriptor. The operand relation (for binary ops) is resolved by the
/// caller; kBroadcastRowAdd slices its vector operand per tuple.
FusedOp FusedOpFor(OpKind op) {
  switch (op) {
    case OpKind::kAdd: return FusedOp::kAdd;
    case OpKind::kSub: return FusedOp::kSub;
    case OpKind::kHadamard: return FusedOp::kHadamard;
    case OpKind::kElemDiv: return FusedOp::kElemDiv;
    case OpKind::kReluGrad: return FusedOp::kReluGrad;
    case OpKind::kScalarMul: return FusedOp::kScalarMul;
    case OpKind::kRelu: return FusedOp::kRelu;
    case OpKind::kSigmoid: return FusedOp::kSigmoid;
    case OpKind::kExp: return FusedOp::kExp;
    default: return FusedOp::kBiasRowAdd;  // kBroadcastRowAdd
  }
}

/// Applies a fused group's member chain in place over the base vertex's
/// freshly materialized output payloads (data mode only). The base's
/// outputs are uniquely owned make_shared buffers at this point, so the
/// const_pointer_cast is safe; each step delegates to the same *Into
/// kernels the members' unfused stages would run, in the same order, so
/// sinks stay bit-identical. Kernel roofline deltas land on the base's
/// stage record (the caller attaches them after this returns).
void ApplyFusedGroupChain(const ComputeGraph& graph, const FusedGroup& group,
                          const std::unordered_map<int, int>& acc_args,
                          const std::unordered_map<int, Relation>& live,
                          Relation* out) {
  struct MemberInfo {
    FusedOp op;
    bool acc_is_lhs = true;
    double scalar = 0.0;
    const Relation* operand = nullptr;  // null for unary maps
    TupleMap operand_tuples;            // zip operands, keyed like `out`
  };
  std::vector<MemberInfo> members;
  members.reserve(group.members.size());
  for (int m : group.members) {
    const Vertex& mx = graph.vertex(m);
    MemberInfo info;
    info.op = FusedOpFor(mx.op);
    info.scalar = mx.scalar;
    const int acc = acc_args.at(m);
    info.acc_is_lhs = acc == 0;
    for (size_t j = 0; j < mx.inputs.size(); ++j) {
      if (static_cast<int>(j) == acc) continue;
      info.operand = &live.at(mx.inputs[j]);
      if (info.op != FusedOp::kBiasRowAdd) {
        info.operand_tuples = MapTuples(info.operand->tuples);
      }
    }
    members.push_back(std::move(info));
  }
  const ChunkDims od = ChunkDimsFor(out->type, BuiltinFormats()[out->format]);
  auto apply = [&](EngineTuple& t) {
    DenseMatrix* acc = std::const_pointer_cast<DenseMatrix>(t.dense).get();
    std::vector<FusedStep> steps(members.size());
    // Bias slices must outlive ApplyFusedChain; reserve so the operand
    // pointers stay stable as more slices are appended.
    std::vector<DenseMatrix> slices;
    slices.reserve(members.size());
    for (size_t k = 0; k < members.size(); ++k) {
      const MemberInfo& info = members[k];
      steps[k].op = info.op;
      steps[k].acc_is_lhs = info.acc_is_lhs;
      steps[k].scalar = info.scalar;
      if (info.op == FusedOp::kBiasRowAdd) {
        slices.push_back(info.operand->tuples[0].dense->Block(
            0, t.c * od.cols, 1, t.cols));
        steps[k].operand = &slices.back();
      } else if (info.operand != nullptr) {
        steps[k].operand =
            info.operand_tuples.at(TupleKey(t.r, t.c))->dense.get();
      }
    }
    ApplyFusedChain(steps, acc);
  };
  ParallelFor(0, static_cast<int64_t>(out->tuples.size()), 1,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) apply(out->tuples[i]);
              });
}

}  // namespace

bool PlanExecutor::DefaultFusion() { return FusionEnabled(); }

int PlanExecutor::DefaultDistWorkers() {
  const char* env = std::getenv("MATOPT_WORKERS");
  if (env == nullptr) return 0;
  int workers = std::atoi(env);
  return workers > 0 ? workers : 0;
}

Result<ExecResult> PlanExecutor::Execute(
    const ComputeGraph& graph, const Annotation& annotation,
    std::unordered_map<int, Relation> inputs) const {
  // Data-mode executions lower onto the sharded multi-worker runtime when
  // one is configured (DESIGN.md §12); its sim pass re-enters this
  // function with dist_workers off. Dry inputs stay on the single-node
  // path: there are no payloads to move.
  // Kernel counters are process-global, like the pool counters: the
  // whole-run delta is the roofline rollup (flop/byte tallies are
  // deterministic, seconds are observability only).
  const KernelCounters kernels_run_before = KernelCountersSnapshot();
  if (dist_workers_ > 0 && !inputs.empty()) {
    bool all_data = true;
    for (const auto& [v, rel] : inputs) all_data = all_data && rel.has_data;
    if (all_data) {
      Result<ExecResult> dist_result = dist::ExecuteDistributedPlan(
          catalog_, cluster_, graph, annotation, std::move(inputs),
          dist_workers_, transport_, fusion_);
      if (dist_result.ok()) {
        dist_result.value().stats.kernels =
            KernelCountersDelta(kernels_run_before, KernelCountersSnapshot());
      }
      return dist_result;
    }
  }
  // Pre-flight: the full plan-analysis pipeline replaces the old bare
  // ValidateAnnotation call. Every error finding aborts execution with a
  // rule-tagged message; warnings and notes are tolerated here (callers
  // wanting them run AnalyzePlan themselves).
  {
    DiagnosticList diagnostics =
        AnalyzePlan(graph, annotation, catalog_, /*model=*/nullptr, cluster_);
    if (diagnostics.HasErrors()) {
      Status first = diagnostics.ToStatus();
      return Status(first.code(),
                    "plan rejected before execution: " + first.message());
    }
  }
  ExecResult result;
  std::unordered_map<int, Relation> live;
  const BufferPool::Stats pool_before = BufferPool::Default().snapshot();

  // Number of not-yet-executed consumer edges per vertex (used both to
  // free relations and to prove producers dead for payload stealing).
  std::vector<int> remaining(graph.num_vertices(), 0);
  for (int w = 0; w < graph.num_vertices(); ++w) {
    for (int in : graph.vertex(w).inputs) ++remaining[in];
  }

  // Fused-group consumption (DESIGN.md §15): the plan's fused groups run
  // as in-place epilogue chains at their base vertex; every member becomes
  // a passthrough that charges its normal accounting but transfers payload
  // pointers. Plans without a fusion plan (hand-
  // built annotations, baseline planners) fall back to the detector's
  // maximal chains. Decisions depend only on the graph and annotation, so
  // dry-run and data mode agree. Plan-carried groups were already
  // validated by the pre-flight's MO070 rule; detector output is valid by
  // construction.
  std::unordered_map<int, const FusedGroup*> group_at;  // base v -> group
  std::unordered_map<int, int> passthrough;  // member w -> accumulator arg
  FusionPlan detected;
  if (fusion_) {
    const FusionPlan* fusion_plan = &annotation.fusion;
    if (fusion_plan->empty()) {
      detected = DetectFusionPlan(graph, annotation);
      fusion_plan = &detected;
    }
    for (const FusedGroup& g : fusion_plan->groups) {
      group_at[g.base] = &g;
      int prev = g.base;
      for (int m : g.members) {
        const Vertex& mx = graph.vertex(m);
        passthrough[m] = FusedAccumulatorArg(mx.op, mx, prev);
        prev = m;
      }
    }
  }

  // Materialized (on-disk) bytes of live relations per worker. Relations
  // persist until their last consumer runs; exceeding the per-worker disk
  // budget reproduces the paper's intermediate-data "Fail"s.
  std::vector<double> live_disk(cluster_.num_workers, 0.0);
  auto track = [&](const Relation& rel, double sign) {
    std::vector<double> bytes = rel.WorkerBytes(cluster_.num_workers);
    for (int w = 0; w < cluster_.num_workers; ++w) {
      live_disk[w] += sign * bytes[w];
    }
  };
  auto check_disk = [&]() -> Status {
    for (int w = 0; w < cluster_.num_workers; ++w) {
      result.stats.peak_worker_spill_bytes =
          std::max(result.stats.peak_worker_spill_bytes, live_disk[w]);
      if (live_disk[w] > cluster_.worker_spill_bytes) {
        return Status::OutOfMemory(
            "worker " + std::to_string(w) + " holds " +
            std::to_string(live_disk[w]) +
            " bytes of materialized relations (disk budget exceeded)");
      }
    }
    return Status::OK();
  };

  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    const VertexAnnotation& va = annotation.at(v);
    if (vx.op == OpKind::kInput) {
      auto it = inputs.find(v);
      if (it == inputs.end()) {
        return Status::InvalidArgument("missing input relation for v" +
                                       std::to_string(v));
      }
      if (it->second.format != vx.input_format) {
        return Status::InvalidArgument(
            "input relation format mismatch for v" + std::to_string(v));
      }
      track(it->second, +1.0);
      live[v] = std::move(it->second);
      continue;
    }

    // Attributes the local-kernel activity and the deterministic memory
    // tallies accumulated since the snapshots to the most recently
    // appended stage record (the call that just committed it), so fused
    // and unfused stages are separately attributable. Pool counters stay
    // global: they are scheduling-dependent observability.
    auto attach_stage = [&result](const KernelCounters& before,
                                  const MemoryStats& mem_before) {
      const KernelCounters delta =
          KernelCountersDelta(before, KernelCountersSnapshot());
      if (result.stats.stages.empty()) return;
      ExecStats::StageRecord& rec = result.stats.stages.back();
      rec.kernel_flops +=
          delta.gemm_flops + delta.elem_flops + delta.inverse_flops;
      rec.kernel_bytes += delta.gemm_bytes + delta.elem_bytes;
      rec.kernel_seconds += delta.gemm_seconds + delta.inverse_seconds;
      const MemoryStats& now = result.stats.memory;
      rec.mem_bytes_copied += now.bytes_copied - mem_before.bytes_copied;
      rec.mem_bytes_moved += now.bytes_moved - mem_before.bytes_moved;
      rec.mem_fused_bytes_avoided +=
          now.fused_bytes_avoided - mem_before.fused_bytes_avoided;
      rec.mem_fused_kernels += now.fused_kernels - mem_before.fused_kernels;
    };

    // Apply per-edge transformations, then the implementation. An
    // argument is handed over as owned when the plan proves its producer
    // dead after this edge: transformed copies always (they die right
    // after the vertex), live relations when this is their last pending
    // consumer edge.
    std::vector<Relation> transformed(vx.inputs.size());
    std::vector<ExecInput> arg_inputs(vx.inputs.size());
    for (size_t j = 0; j < vx.inputs.size(); ++j) {
      Relation& src = live.at(vx.inputs[j]);
      const EdgeAnnotation& e = va.input_edges[j];
      if (e.transform.has_value()) {
        const KernelCounters kernels_before = KernelCountersSnapshot();
        const MemoryStats mem_before = result.stats.memory;
        MATOPT_ASSIGN_OR_RETURN(
            transformed[j], ExecuteTransform(catalog_, *e.transform, src,
                                             cluster_, &result.stats));
        attach_stage(kernels_before, mem_before);
        track(transformed[j], +1.0);
        arg_inputs[j].rel = &transformed[j];
        arg_inputs[j].owned = &transformed[j];
      } else {
        arg_inputs[j].rel = &src;
        if (remaining[vx.inputs[j]] == 1) arg_inputs[j].owned = &src;
      }
    }
    ExecOptions opts;
    if (auto pit = passthrough.find(v); pit != passthrough.end()) {
      opts.passthrough_arg = pit->second;
    }
    MATOPT_RETURN_IF_ERROR(check_disk());
    const KernelCounters kernels_before = KernelCountersSnapshot();
    const MemoryStats mem_before = result.stats.memory;
    MATOPT_ASSIGN_OR_RETURN(
        Relation out,
        ExecuteImpl(catalog_, va.impl, va.output_format, arg_inputs, vx,
                    cluster_, &result.stats, opts));
    // Base of a fused group: apply the member chain in place over the
    // fresh output payloads. The kernel work lands on this vertex's stage
    // via the attach below; the members' own steps keep their normal
    // simulated accounting and pass the transformed payloads through.
    if (auto git = group_at.find(v); git != group_at.end()) {
      if (out.has_data) {
        ApplyFusedGroupChain(graph, *git->second, passthrough, live, &out);
      }
      ++result.stats.memory.fused_groups;
    }
    attach_stage(kernels_before, mem_before);
    track(out, +1.0);
    MATOPT_RETURN_IF_ERROR(check_disk());
    live[v] = std::move(out);

    for (size_t j = 0; j < vx.inputs.size(); ++j) {
      if (va.input_edges[j].transform.has_value()) {
        track(transformed[j], -1.0);  // transformed copies die immediately
        RecycleRelation(&transformed[j]);
      }
    }
    for (int in : vx.inputs) {
      if (--remaining[in] == 0) {
        track(live.at(in), -1.0);
        RecycleRelation(&live.at(in));
        live.erase(in);
      }
    }
  }

  for (int sink : graph.Sinks()) {
    result.sinks.emplace(sink, std::move(live.at(sink)));
  }

  // Pool counters are process-global and scheduling-dependent (worker
  // threads share the store), so they are observability only — the
  // deterministic memory fields above never depend on them.
  const BufferPool::Stats pool_after = BufferPool::Default().snapshot();
  result.stats.memory.pool_hits = pool_after.hits - pool_before.hits;
  result.stats.memory.pool_misses = pool_after.misses - pool_before.misses;
  result.stats.memory.pool_bytes_recycled =
      pool_after.bytes_recycled - pool_before.bytes_recycled;
  result.stats.kernels =
      KernelCountersDelta(kernels_run_before, KernelCountersSnapshot());
  return result;
}

Result<ExecResult> PlanExecutor::DryRun(const ComputeGraph& graph,
                                        const Annotation& annotation) const {
  std::unordered_map<int, Relation> inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    inputs[v] = MakeDryRelation(vx.type, vx.input_format, vx.sparsity,
                                cluster_);
  }
  return Execute(graph, annotation, std::move(inputs));
}

}  // namespace matopt
