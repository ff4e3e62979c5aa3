#include "dist/routing.h"

#include <algorithm>

#include "dist/partition.h"
#include "engine/operators.h"

namespace matopt::dist {

namespace {

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

/// Per-argument routes of an implementation's exchange stage.
std::vector<Route> RoutesFor(ImplKind kind) {
  switch (kind) {
    case ImplKind::kMmSingleSingle:
    case ImplKind::kMmSpSingleXSingle:
    case ImplKind::kGpuMmSingleSingle:
    case ImplKind::kAddZip:
    case ImplKind::kSubZip:
    case ImplKind::kHadamardZip:
    case ImplKind::kElemDivZip:
    case ImplKind::kReluGradZip:
    case ImplKind::kAddSparseZip:
      return {Route::kIdentity, Route::kIdentity};
    case ImplKind::kMmRowStripsXBcastSingle:
    case ImplKind::kMmSpRowStripsXBcastSingle:
    case ImplKind::kGpuMmRowStripsXBcastSingle:
    case ImplKind::kMmRowStripsXBcastColStrips:
    case ImplKind::kMmSpRowStripsXTiles:
    case ImplKind::kBroadcastRowAddBcastVec:
      return {Route::kIdentity, Route::kBroadcast};
    case ImplKind::kMmBcastSingleXColStrips:
    case ImplKind::kMmSpSingleXColStrips:
    case ImplKind::kGpuMmBcastSingleXColStrips:
      return {Route::kBroadcast, Route::kIdentity};
    case ImplKind::kMmCrossStrips:
    case ImplKind::kMmTilesShuffle:
      return {Route::kRowsToAllCols, Route::kColsToAllRows};
    case ImplKind::kMmBcastTilesXTiles:
      return {Route::kBroadcast, Route::kColsToAllRows};
    case ImplKind::kMmTilesXBcastTiles:
      return {Route::kRowsToAllCols, Route::kBroadcast};
    case ImplKind::kMmColStripsXRowStripsOuterSum:
      return {Route::kAllToRoot, Route::kAllToRoot};
    case ImplKind::kScalarMulMap:
    case ImplKind::kReluMap:
    case ImplKind::kSigmoidMap:
    case ImplKind::kExpMap:
    case ImplKind::kSoftmaxRowStrips:
    case ImplKind::kSoftmaxSingle:
      return {Route::kIdentity};
    case ImplKind::kTransposeSingle:
    case ImplKind::kTransposeTiles:
      return {Route::kTransSwap};
    case ImplKind::kTransposeRowToCol:
      return {Route::kTransRowToCol};
    case ImplKind::kTransposeColToRow:
      return {Route::kTransColToRow};
    case ImplKind::kRowSumRowStrips:
    case ImplKind::kRowSumTilesAgg:
      return {Route::kRowGroup};
    case ImplKind::kColSumColStrips:
    case ImplKind::kColSumTilesAgg:
      return {Route::kColGroup};
    case ImplKind::kRowSumSingle:
    case ImplKind::kColSumSingle:
    case ImplKind::kInverseSingleLu:
    case ImplKind::kInverseGatherLu:
    case ImplKind::kGpuInverseSingleLu:
      return {Route::kAllToRoot};
  }
  return {};
}

KeyFn KeyFnFor(Route route, int64_t nr_out, int64_t nc_out) {
  switch (route) {
    case Route::kIdentity:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(t.r, t.c);
      };
    case Route::kRowsToAllCols:
      return [nc_out](const EngineTuple& t, auto* keys) {
        for (int64_t j = 0; j < nc_out; ++j) keys->emplace_back(t.r, j);
      };
    case Route::kColsToAllRows:
      return [nr_out](const EngineTuple& t, auto* keys) {
        for (int64_t i = 0; i < nr_out; ++i) keys->emplace_back(i, t.c);
      };
    case Route::kAllToRoot:
      return [](const EngineTuple&, auto* keys) { keys->emplace_back(0, 0); };
    case Route::kTransSwap:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(t.c, t.r);
      };
    case Route::kTransRowToCol:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(0, t.r);
      };
    case Route::kTransColToRow:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(t.c, 0);
      };
    case Route::kRowGroup:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(t.r, 0);
      };
    case Route::kColGroup:
      return [](const EngineTuple& t, auto* keys) {
        keys->emplace_back(0, t.c);
      };
    case Route::kBroadcast:
      return [](const EngineTuple&, auto*) {};
  }
  return [](const EngineTuple&, auto*) {};
}

/// Grid-overlap routing for format transformations: a source chunk is
/// needed by every target chunk whose region it intersects.
KeyFn GridOverlapKeyFn(const MatrixType& type, const Format& src_fmt,
                       const Format& dst_fmt) {
  ChunkDims sd = ChunkDimsFor(type, src_fmt);
  ChunkDims dd = ChunkDimsFor(type, dst_fmt);
  return [sd, dd](const EngineTuple& t, auto* keys) {
    int64_t r0 = (t.r * sd.rows) / dd.rows;
    int64_t r1 = (t.r * sd.rows + t.rows - 1) / dd.rows;
    int64_t c0 = (t.c * sd.cols) / dd.cols;
    int64_t c1 = (t.c * sd.cols + t.cols - 1) / dd.cols;
    for (int64_t i = r0; i <= r1; ++i) {
      for (int64_t j = c0; j <= c1; ++j) keys->emplace_back(i, j);
    }
  };
}

OwnerMap MapOwners(const Relation& skeleton, int num_workers) {
  OwnerMap m;
  m.owner.reserve(skeleton.tuples.size());
  for (const EngineTuple& t : skeleton.tuples) {
    m.owner[TupleKey(t.r, t.c)] = DistWorkerOf(t, num_workers);
    m.nr = std::max(m.nr, t.r + 1);
    m.nc = std::max(m.nc, t.c + 1);
  }
  return m;
}

}  // namespace

StagePlan RouteStage(const Stage& stage,
                     const std::vector<const Relation*>& args,
                     int num_workers) {
  StagePlan plan;
  plan.args.resize(args.size());
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (size_t j = 0; j < args.size(); ++j) {
    StagePlan::Arg& ap = plan.args[j];
    ap.broadcast = stage.routes[j] == Route::kBroadcast;
    ap.sparse_layout = FormatOf(args[j]->format).sparse();
    ap.dests.resize(args[j]->tuples.size());
    for (size_t i = 0; i < args[j]->tuples.size(); ++i) {
      const EngineTuple& t = args[j]->tuples[i];
      std::vector<int>& dests = ap.dests[i];
      if (ap.broadcast) {
        dests.resize(num_workers);
        for (int w = 0; w < num_workers; ++w) dests[w] = w;
      } else {
        keys.clear();
        stage.keyfns[j](t, &keys);
        for (const auto& [r, c] : keys) {
          auto it = stage.owners.owner.find(TupleKey(r, c));
          if (it == stage.owners.owner.end()) continue;  // outside the grid
          dests.push_back(it->second);
        }
        std::sort(dests.begin(), dests.end());
        dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
      }
      plan.tuples += static_cast<double>(dests.size());
    }
  }
  return plan;
}

Result<StagePlan> PlanStage(const Stage& stage,
                            const std::vector<const Relation*>& args,
                            const ClusterConfig& cluster, int num_workers) {
  const std::string& label = stage.label;
  StagePlan plan = RouteStage(stage, args, num_workers);
  // Remote shuffle bytes buffered by each receiving worker this stage.
  std::vector<double> inbound(num_workers, 0.0);
  for (size_t j = 0; j < args.size(); ++j) {
    const StagePlan::Arg& ap = plan.args[j];
    if (ap.broadcast && args[j]->TotalBytes() > cluster.broadcast_cap_bytes) {
      return Status::OutOfMemory(
          label + ": arg " + std::to_string(j) + " holds " +
          std::to_string(args[j]->TotalBytes()) +
          " bytes, too large to replicate (broadcast_cap_bytes)");
    }
    for (size_t i = 0; i < args[j]->tuples.size(); ++i) {
      const EngineTuple& t = args[j]->tuples[i];
      double bytes = t.Bytes(ap.sparse_layout);
      if (bytes > cluster.single_tuple_cap_bytes) {
        return Status::OutOfMemory(
            label + ": tuple (" + std::to_string(t.r) + "," +
            std::to_string(t.c) + ") of " + std::to_string(bytes) +
            " bytes exceeds single_tuple_cap_bytes");
      }
      int from = DistWorkerOf(t, num_workers);
      for (int to : ap.dests[i]) {
        if (to == from) continue;
        if (ap.broadcast) {
          plan.broadcast_bytes += bytes;
        } else {
          plan.shuffle_bytes += bytes;
          inbound[to] += bytes;
        }
      }
    }
  }
  for (int w = 0; w < num_workers; ++w) {
    if (inbound[w] > cluster.worker_spill_bytes) {
      return Status::OutOfMemory(
          label + ": worker " + std::to_string(w) + " would buffer " +
          std::to_string(inbound[w]) +
          " bytes of shuffle input, over worker_spill_bytes");
    }
  }
  return plan;
}

Result<std::vector<Stage>> BuildStageList(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    const std::unordered_map<int, Relation>& dry_inputs, int num_workers) {
  if (static_cast<int>(annotation.vertices.size()) != graph.num_vertices()) {
    return Status::InvalidArgument(
        "annotation shape does not match the graph");
  }
  std::vector<Stage> stages;
  std::vector<StageArg> value(graph.num_vertices());  // where v's matrix is
  auto push = [&](Stage st) {
    st.owners = MapOwners(st.skeleton, num_workers);
    if (st.keyfns.empty()) {
      for (Route r : st.routes) {
        st.keyfns.push_back(KeyFnFor(r, st.owners.nr, st.owners.nc));
      }
    }
    stages.push_back(std::move(st));
    return static_cast<int>(stages.size()) - 1;
  };
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op == OpKind::kInput) {
      if (dry_inputs.find(v) == dry_inputs.end()) {
        return Status::InvalidArgument("missing input relation for vertex " +
                                       std::to_string(v));
      }
      value[v] = StageArg{-1, v};
      continue;
    }
    const VertexAnnotation& va = annotation.at(v);
    if (va.input_edges.size() != vx.inputs.size()) {
      return Status::InvalidArgument("annotation lists wrong edge count at v" +
                                     std::to_string(v));
    }
    for (int u : vx.inputs) {
      if (u < 0 || u >= v) {
        return Status::InvalidArgument("graph is not in topological order");
      }
    }

    // Per-edge transformations, each its own exchange stage.
    std::vector<StageArg> args;
    for (size_t j = 0; j < vx.inputs.size(); ++j) {
      StageArg in = value[vx.inputs[j]];
      if (!va.input_edges[j].transform.has_value()) {
        args.push_back(in);
        continue;
      }
      TransformKind kind = *va.input_edges[j].transform;
      const Relation& in_rel =
          in.stage >= 0 ? stages[in.stage].skeleton : dry_inputs.at(in.vertex);
      Stage st;
      st.label = "v" + std::to_string(v) + ".arg" + std::to_string(j) +
                 ":transform:" + TransformKindName(kind);
      st.vertex = v;
      st.edge_arg = static_cast<int>(j);
      st.transform = kind;
      MATOPT_ASSIGN_OR_RETURN(
          st.skeleton, TransformSkeleton(catalog, kind, in_rel, cluster));
      st.routes = {Route::kIdentity};
      st.keyfns = {GridOverlapKeyFn(in_rel.type, FormatOf(in_rel.format),
                                    FormatOf(st.skeleton.format))};
      st.args = {in};
      // A transformation re-chunks the same matrix.
      args.push_back(StageArg{push(std::move(st)), in.vertex});
    }

    // The implementation stage. The output skeleton follows the annotated
    // output format and carries the estimated sparsity.
    Stage st;
    st.routes = RoutesFor(va.impl);
    if (st.routes.size() != args.size()) {
      return Status::InvalidArgument(
          std::string(ImplKindName(va.impl)) +
          " has the wrong arity for the op at v" + std::to_string(v));
    }
    st.label = "v" + std::to_string(v) + ":" + ImplKindName(va.impl);
    st.vertex = v;
    st.impl = va.impl;
    double out_sparsity =
        FormatOf(va.output_format).sparse() ? vx.sparsity : 1.0;
    st.skeleton =
        MakeDryRelation(vx.type, va.output_format, out_sparsity, cluster);
    st.args = std::move(args);
    value[v] = StageArg{push(std::move(st)), v};
  }
  return stages;
}

}  // namespace matopt::dist
