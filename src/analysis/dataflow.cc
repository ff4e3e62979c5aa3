#include "analysis/dataflow.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "dist/partition.h"
#include "dist/routing.h"
#include "engine/relation.h"

namespace matopt {

DataflowResult RunSparsityDataflow(
    const ComputeGraph& graph, const std::unordered_map<int, double>* seeds) {
  DataflowResult result;
  result.vertex_sparsity.resize(graph.num_vertices());
  auto clamp01 = [](double s) { return std::max(0.0, std::min(1.0, s)); };
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (seeds != nullptr) {
      auto it = seeds->find(v);
      if (it != seeds->end()) {
        result.vertex_sparsity[v] = SparsityInterval::Point(clamp01(it->second));
        continue;
      }
    }
    if (vx.op == OpKind::kInput) {
      result.vertex_sparsity[v] = SparsityInterval::Point(clamp01(vx.sparsity));
      continue;
    }
    std::vector<SparsityInterval> in;
    std::vector<MatrixType> in_types;
    in.reserve(vx.inputs.size());
    in_types.reserve(vx.inputs.size());
    for (int u : vx.inputs) {
      in.push_back(result.vertex_sparsity[u]);
      in_types.push_back(graph.vertex(u).type);
    }
    result.vertex_sparsity[v] =
        TransferSparsity(vx.op, vx.scalar, in, in_types, vx.type);
  }
  return result;
}

namespace {

/// max over {0 <= nnz_i <= cap_i, sum nnz_i = total} of sum w_i * nnz_i:
/// fill the heaviest-weighted tuples first (adversarial skew).
double MaxWeightedNnz(std::vector<std::pair<double, double>> items,
                      double total) {
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double acc = 0.0;
  for (const auto& [w, cap] : items) {
    if (total <= 0.0) break;
    double take = std::min(cap, total);
    acc += w * take;
    total -= take;
  }
  return acc;
}

/// min of the same objective: park as many non-zeros as possible in the
/// lightest-weighted tuples.
double MinWeightedNnz(std::vector<std::pair<double, double>> items,
                      double total) {
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double acc = 0.0;
  for (const auto& [w, cap] : items) {
    if (total <= 0.0) break;
    double take = std::min(cap, total);
    acc += w * take;
    total -= take;
  }
  return acc;
}

/// Derives the byte bounds of one routed stage. Dense tuples serialize at
/// exactly 8 bytes/entry; sparse tuples at 16 bytes/non-zero plus an
/// 8*rows index. Only the total non-zero count of each argument matrix is
/// bounded (by its density interval), so every aggregate maximizes /
/// minimizes over adversarial placements of those non-zeros across chunks.
StageBounds BoundStage(const dist::Stage& st,
                       const std::vector<const Relation*>& args,
                       const std::vector<SparsityInterval>& densities,
                       const dist::StagePlan& plan, int num_workers) {
  StageBounds b;
  b.label = st.label;
  b.vertex = st.vertex;
  b.edge_arg = st.edge_arg;
  b.tuples = plan.tuples;
  b.args.resize(args.size());
  // Per-worker remote shuffle inbound accumulators.
  std::vector<ByteInterval> inbound(num_workers);

  for (size_t j = 0; j < args.size(); ++j) {
    const Relation& rel = *args[j];
    const SparsityInterval density = densities[j];
    const dist::StagePlan::Arg& ap = plan.args[j];
    const bool sparse = ap.sparse_layout;
    StageBounds::ArgBound& ab = b.args[j];
    ab.broadcast = ap.broadcast;

    const double e_total =
        static_cast<double>(rel.type.rows()) * static_cast<double>(rel.type.cols());
    const double n_lo = density.lo * e_total;
    const double n_hi = density.hi * e_total;

    double fixed_total = 0.0;     // 8*rows summed over all tuples
    double dense_total = 0.0;     // 8*entries summed over all tuples
    double remote_fixed = 0.0;    // 8*rows weighted by remote fanout
    double remote_dense = 0.0;    // 8*entries weighted by remote fanout
    std::vector<std::pair<double, double>> remote_items;  // (fanout, entries)
    remote_items.reserve(rel.tuples.size());
    std::vector<std::vector<std::pair<double, double>>> worker_items;
    std::vector<double> worker_fixed(num_workers, 0.0);
    std::vector<double> worker_dense(num_workers, 0.0);
    if (!ap.broadcast) worker_items.resize(num_workers);

    for (size_t i = 0; i < rel.tuples.size(); ++i) {
      const EngineTuple& t = rel.tuples[i];
      const double entries =
          static_cast<double>(t.rows) * static_cast<double>(t.cols);
      const double rows = static_cast<double>(t.rows);
      const int from = dist::DistWorkerOf(t, num_workers);
      double fanout = 0.0;
      for (int to : ap.dests[i]) {
        if (to == from) continue;
        fanout += 1.0;
        if (!ap.broadcast) {
          worker_fixed[to] += 8.0 * rows;
          worker_dense[to] += 8.0 * entries;
          worker_items[to].emplace_back(1.0, entries);
        }
      }
      fixed_total += 8.0 * rows;
      dense_total += 8.0 * entries;
      remote_fixed += fanout * 8.0 * rows;
      remote_dense += fanout * 8.0 * entries;
      remote_items.emplace_back(fanout, entries);

      // Largest / smallest this tuple can get vs single_tuple_cap_bytes: a
      // tuple must hold at least the non-zeros that do not fit elsewhere.
      double t_hi = sparse ? 16.0 * std::min(entries, n_hi) + 8.0 * rows
                           : 8.0 * entries;
      double t_lo =
          sparse ? 16.0 * std::max(0.0, n_lo - (e_total - entries)) + 8.0 * rows
                 : 8.0 * entries;
      ab.max_tuple_bytes.hi = std::max(ab.max_tuple_bytes.hi, t_hi);
      ab.max_tuple_bytes.lo = std::max(ab.max_tuple_bytes.lo, t_lo);
    }

    ab.total_bytes = sparse
                         ? ByteInterval{16.0 * n_lo + fixed_total,
                                        16.0 * n_hi + fixed_total}
                         : ByteInterval{dense_total, dense_total};

    ByteInterval moved =
        sparse ? ByteInterval{16.0 * MinWeightedNnz(remote_items, n_lo) +
                                  remote_fixed,
                              16.0 * MaxWeightedNnz(remote_items, n_hi) +
                                  remote_fixed}
               : ByteInterval{remote_dense, remote_dense};
    if (ap.broadcast) {
      b.broadcast_bytes.lo += moved.lo;
      b.broadcast_bytes.hi += moved.hi;
    } else {
      b.shuffle_bytes.lo += moved.lo;
      b.shuffle_bytes.hi += moved.hi;
      for (int w = 0; w < num_workers; ++w) {
        if (sparse) {
          inbound[w].lo += 16.0 * MinWeightedNnz(worker_items[w], n_lo) +
                           worker_fixed[w];
          inbound[w].hi += 16.0 * MaxWeightedNnz(worker_items[w], n_hi) +
                           worker_fixed[w];
        } else {
          inbound[w].lo += worker_dense[w];
          inbound[w].hi += worker_dense[w];
        }
      }
    }
  }

  for (const ByteInterval& w : inbound) {
    b.max_worker_inbound.lo = std::max(b.max_worker_inbound.lo, w.lo);
    b.max_worker_inbound.hi = std::max(b.max_worker_inbound.hi, w.hi);
  }
  return b;
}

}  // namespace

Result<std::vector<StageBounds>> ComputeDistStageBounds(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    const DataflowResult& flow, int num_workers,
    const std::unordered_map<int, double>* input_sparsity) {
  if (num_workers < 1) {
    return Status::InvalidArgument("stage bounds need >= 1 worker");
  }
  std::unordered_map<int, Relation> dry_inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    double s = vx.sparsity;
    if (input_sparsity != nullptr) {
      auto it = input_sparsity->find(v);
      if (it != input_sparsity->end()) s = it->second;
    }
    dry_inputs.emplace(v,
                       MakeDryRelation(vx.type, vx.input_format, s, cluster));
  }
  MATOPT_ASSIGN_OR_RETURN(
      std::vector<dist::Stage> stages,
      dist::BuildStageList(catalog, cluster, graph, annotation, dry_inputs,
                           num_workers));
  auto skeleton_of = [&stages](int i) -> const Relation& {
    return stages[i].skeleton;
  };
  std::vector<StageBounds> out;
  out.reserve(stages.size());
  for (const dist::Stage& st : stages) {
    std::vector<const Relation*> args =
        dist::StageArgs(st, dry_inputs, skeleton_of);
    // Every argument holds the matrix of its `vertex`, so its density
    // interval is that vertex's.
    std::vector<SparsityInterval> densities;
    for (const dist::StageArg& a : st.args) {
      densities.push_back(flow.at(a.vertex));
    }
    dist::StagePlan plan = dist::RouteStage(st, args, num_workers);
    out.push_back(BoundStage(st, args, densities, plan, num_workers));
  }
  return out;
}

}  // namespace matopt
