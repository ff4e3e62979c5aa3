#include "engine/operators.h"

#include <algorithm>

#include "engine/tuple_compute.h"

namespace matopt {

namespace {

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

}  // namespace

Result<Relation> TransformSkeleton(const Catalog& catalog, TransformKind kind,
                                   const Relation& input,
                                   const ClusterConfig& cluster) {
  ArgInfo arg{input.type, input.format, input.sparsity};
  auto target = catalog.TransformOutputFormat(kind, arg, cluster);
  if (!target.has_value()) {
    return Status::TypeError(std::string("transformation ") +
                             TransformKindName(kind) +
                             " is infeasible for this relation");
  }
  double out_sparsity = FormatOf(*target).sparse() ? input.sparsity : 1.0;
  return MakeDryRelation(input.type, *target, out_sparsity, cluster);
}

Result<Relation> ExecuteTransform(const Catalog& catalog, TransformKind kind,
                                  const Relation& input,
                                  const ClusterConfig& cluster,
                                  ExecStats* stats) {
  MATOPT_ASSIGN_OR_RETURN(Relation out,
                          TransformSkeleton(catalog, kind, input, cluster));
  const Format& out_fmt = FormatOf(out.format);
  const double out_sparsity = out.sparsity;

  // Accounting: a transformation repartitions every source tuple (worst
  // case all bytes cross the network) and materializes the target tuples.
  // Re-chunking to a single tuple runs the two-stage ROWMATRIX/COLMATRIX
  // aggregation of Section 2.1 and lands all bytes on one worker.
  FormatStats src_stats =
      ComputeFormatStats(input.type, FormatOf(input.format), input.sparsity);
  FormatStats dst_stats =
      ComputeFormatStats(input.type, out_fmt, out_sparsity);
  bool to_single = out_fmt.layout == Layout::kSingleTuple ||
                   out_fmt.layout == Layout::kSpSingleCsr;

  StageAccountant acct(cluster, stats,
                       std::string("transform:") + TransformKindName(kind));
  std::vector<double> in_bytes = input.WorkerBytes(cluster.num_workers);
  // A transformation re-materializes the relation: the source is read out
  // and the target chunking written fresh. Charged identically in dry-run
  // and data mode (shape-derived).
  stats->memory.bytes_copied += dst_stats.total_bytes;
  for (int w = 0; w < cluster.num_workers; ++w) {
    acct.AddNet(w, in_bytes[w]);
    acct.PeakWorkerMem(w, src_stats.max_tuple_bytes +
                              dst_stats.max_tuple_bytes);
    acct.AddFlops(w, in_bytes[w] / 8.0);  // scan/copy cost
  }
  acct.AddTuples(static_cast<double>(src_stats.num_tuples) +
                 static_cast<double>(dst_stats.num_tuples));
  if (to_single) {
    // The ROWMATRIX/COLMATRIX aggregation assembles the whole matrix on
    // one worker, in memory.
    int owner = WorkerFor(0, 0, cluster.num_workers);
    acct.AddWorkerMem(owner, dst_stats.total_bytes);
    acct.AddDisk(owner, dst_stats.total_bytes);
  } else {
    for (int w = 0; w < cluster.num_workers; ++w) {
      acct.AddDisk(w, dst_stats.total_bytes / cluster.num_workers);
    }
  }
  MATOPT_RETURN_IF_ERROR(acct.Commit());

  // Data mode re-chunks through the tuple-compute table's transformation
  // entry; a sparse target reports its measured sparsity.
  if (input.has_data) {
    MATOPT_RETURN_IF_ERROR(ComputeLocal(TupleStage{std::nullopt, nullptr,
                                                   {&input}},
                                        nullptr, /*measure_sparsity=*/true,
                                        &out));
  }
  return out;
}

}  // namespace matopt
