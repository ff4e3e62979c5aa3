#include "dist/runtime.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/format/format.h"
#include "dist/exchange.h"
#include "dist/partition.h"
#include "dist/routing.h"
#include "engine/operators.h"
#include "engine/relation.h"
#include "engine/tuple_compute.h"

namespace matopt::dist {

namespace {

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

// ---------------------------------------------------------------------
// Pass driver.

/// One exchange (shuffle or broadcast) per stage argument.
struct ArgExchange {
  std::unique_ptr<ShuffleExchange> shuffle;
  std::unique_ptr<BroadcastExchange> bcast;

  Status Deliver(int from, const EngineTuple& t,
                 const std::vector<int>& dests) {
    if (bcast != nullptr) return bcast->Broadcast(from, t);
    for (int to : dests) {
      MATOPT_RETURN_IF_ERROR(shuffle->Route(from, to, t));
    }
    return Status::OK();
  }
  Result<std::vector<EngineTuple>> Gather(int to) {
    return bcast != nullptr ? bcast->Gather(to) : shuffle->Gather(to);
  }
  ChannelStats Remote() const {
    return bcast != nullptr ? bcast->remote_totals()
                            : shuffle->remote_totals();
  }
  ChannelStats Local() const {
    return bcast != nullptr ? bcast->local_totals()
                            : shuffle->local_totals();
  }
};

struct PassEnv {
  const Catalog& catalog;
  const ClusterConfig& cluster;
  const ComputeGraph& graph;
  const Annotation& annotation;
  int num_workers;
  bool data;             // data pass (exchanges + kernels) vs projection
  Transport* transport;  // data pass only
  std::vector<DistExchangeRecord>* records;
  size_t record_idx = 0;  // data pass: next record to fill
  DistStats* dist = nullptr;
  std::vector<double>* busy = nullptr;  // data pass only
};

/// Runs one exchange stage: plan the moves and enforce budgets, account
/// them into the stage's DistExchangeRecord, and — on the data pass —
/// execute the phased send / gather / compute protocol, each worker
/// filling its out slots through the tuple-compute table, and install the
/// computed payloads into `skeleton`.
Result<Relation> RunExchangeStage(PassEnv& env, const std::string& label,
                                  const TupleStage& stage,
                                  const std::vector<Route>& routes,
                                  std::vector<KeyFn> keyfns,
                                  Relation skeleton) {
  const std::vector<const Relation*>& args = stage.args;
  const int W = env.num_workers;
  OwnerMap owners = MapOwners(skeleton, W);
  if (keyfns.empty()) {
    for (Route r : routes) {
      keyfns.push_back(KeyFnFor(r, owners.nr, owners.nc));
    }
  }
  MATOPT_ASSIGN_OR_RETURN(
      StagePlan plan,
      PlanStage(label, args, routes, keyfns, owners, env.cluster, W));

  if (!env.data) {
    DistExchangeRecord rec;
    rec.label = label;
    rec.predicted_shuffle_bytes = plan.shuffle_bytes;
    rec.predicted_broadcast_bytes = plan.broadcast_bytes;
    rec.predicted_tuples = plan.tuples;
    rec.shard_skew = ShardSkew(skeleton, W);
    env.records->push_back(std::move(rec));
    return skeleton;
  }

  if (env.record_idx >= env.records->size() ||
      (*env.records)[env.record_idx].label != label) {
    return Status::Internal("projection/data stage sequences diverged at " +
                            label);
  }
  DistExchangeRecord& rec = (*env.records)[env.record_idx++];

  std::vector<ArgExchange> exchanges(args.size());
  for (size_t j = 0; j < args.size(); ++j) {
    std::string ex_label = label + ":arg" + std::to_string(j);
    if (plan.args[j].broadcast) {
      exchanges[j].bcast = std::make_unique<BroadcastExchange>(
          *env.transport, ex_label, W, plan.args[j].sparse_layout);
    } else {
      exchanges[j].shuffle = std::make_unique<ShuffleExchange>(
          *env.transport, ex_label, W, plan.args[j].sparse_layout);
    }
  }

  // Owned tuple indices per (worker, arg), and each worker's out slots.
  std::vector<std::vector<std::vector<int>>> owned(W);
  for (int w = 0; w < W; ++w) owned[w].resize(args.size());
  for (size_t j = 0; j < args.size(); ++j) {
    for (size_t i = 0; i < args[j]->tuples.size(); ++i) {
      owned[DistWorkerOf(args[j]->tuples[i], W)][j].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<std::vector<int>> out_indices(W);
  for (size_t i = 0; i < skeleton.tuples.size(); ++i) {
    out_indices[DistWorkerOf(skeleton.tuples[i], W)].push_back(
        static_cast<int>(i));
  }

  using Clock = std::chrono::steady_clock;
  auto charge_busy = [&env](int w, Clock::time_point start) {
    (*env.busy)[w] +=
        std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Send phase: each worker routes the tuples it owns. Sends never block;
  // the ParallelFor join is the barrier separating sends from drains.
  std::vector<Status> worker_status(W);
  ParallelFor(0, W, 1, [&](int64_t w0, int64_t w1) {
    for (int64_t w = w0; w < w1; ++w) {
      auto start = Clock::now();
      for (size_t j = 0; j < args.size() && worker_status[w].ok(); ++j) {
        for (int i : owned[w][j]) {
          Status s =
              exchanges[j].Deliver(static_cast<int>(w), args[j]->tuples[i],
                                   plan.args[j].dests[i]);
          if (!s.ok()) {
            worker_status[w] = std::move(s);
            break;
          }
        }
      }
      charge_busy(static_cast<int>(w), start);
    }
  });
  for (const Status& s : worker_status) {
    MATOPT_RETURN_IF_ERROR(s);
  }

  // Drain + compute phase: each worker gathers its inbound tuples in rank
  // order and computes the out tuples it owns into index-addressed slots.
  PayloadSlots slots(skeleton.tuples.size());
  ParallelFor(0, W, 1, [&](int64_t w0, int64_t w1) {
    for (int64_t w = w0; w < w1; ++w) {
      auto start = Clock::now();
      std::vector<std::vector<EngineTuple>> gathered(args.size());
      for (size_t j = 0; j < args.size() && worker_status[w].ok(); ++j) {
        auto g = exchanges[j].Gather(static_cast<int>(w));
        if (!g.ok()) {
          worker_status[w] = g.status();
          break;
        }
        gathered[j] = std::move(g).value();
      }
      if (worker_status[w].ok()) {
        std::vector<std::span<const EngineTuple>> spans(gathered.begin(),
                                                        gathered.end());
        worker_status[w] = ComputeTuples(stage, spans, skeleton,
                                         out_indices[w], nullptr, &slots);
      }
      charge_busy(static_cast<int>(w), start);
    }
  });
  for (const Status& s : worker_status) {
    MATOPT_RETURN_IF_ERROR(s);
  }

  // A transformation's sparse target reports its measured sparsity.
  InstallPayloads(std::move(slots),
                  /*measure_sparsity=*/!stage.kind.has_value(), &skeleton);

  // Measured side of the record, from the transport/exchange counters.
  rec.measured_shuffle_bytes = 0.0;
  rec.measured_broadcast_bytes = 0.0;
  rec.measured_tuples = 0.0;
  for (size_t j = 0; j < args.size(); ++j) {
    ChannelStats remote = exchanges[j].Remote();
    ChannelStats local = exchanges[j].Local();
    if (plan.args[j].broadcast) {
      rec.measured_broadcast_bytes += remote.bytes;
    } else {
      rec.measured_shuffle_bytes += remote.bytes;
    }
    rec.measured_tuples += static_cast<double>(remote.tuples + local.tuples);
    env.dist->messages += remote.messages;
  }
  rec.shard_skew = ShardSkew(skeleton, W);
  env.dist->bytes_shuffled += rec.measured_shuffle_bytes;
  env.dist->bytes_broadcast += rec.measured_broadcast_bytes;
  env.dist->tuples_routed += rec.measured_tuples;
  env.dist->max_shard_skew = std::max(env.dist->max_shard_skew, rec.shard_skew);
  return skeleton;
}

Result<Relation> RunTransformStage(PassEnv& env, const std::string& label,
                                   TransformKind kind, const Relation& input) {
  MATOPT_ASSIGN_OR_RETURN(
      Relation skeleton,
      TransformSkeleton(env.catalog, kind, input, env.cluster));
  std::vector<KeyFn> keyfns;
  keyfns.push_back(GridOverlapKeyFn(input.type, FormatOf(input.format),
                                    FormatOf(skeleton.format)));
  return RunExchangeStage(env, label,
                          TupleStage{std::nullopt, nullptr, {&input}},
                          {Route::kIdentity}, std::move(keyfns),
                          std::move(skeleton));
}

/// Runs every annotated atomic computation of the plan as per-shard local
/// kernels plus exchanges, in vertex order. The projection and data passes
/// share this loop so their stage sequences match record for record.
Status RunPass(PassEnv& env, std::unordered_map<int, Relation> relations,
               std::unordered_map<int, Relation>* sinks) {
  const ComputeGraph& graph = env.graph;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op == OpKind::kInput) {
      if (relations.find(v) == relations.end()) {
        return Status::InvalidArgument("missing input relation for vertex " +
                                       std::to_string(v));
      }
      continue;
    }
    const VertexAnnotation& va = env.annotation.at(v);

    // Per-edge transformations, each its own exchange stage.
    std::vector<Relation> transformed;
    transformed.reserve(vx.inputs.size());
    std::vector<const Relation*> args;
    for (size_t j = 0; j < vx.inputs.size(); ++j) {
      const Relation& in = relations.at(vx.inputs[j]);
      if (va.input_edges[j].transform.has_value()) {
        std::string label = "v" + std::to_string(v) + ".arg" +
                            std::to_string(j) + ":transform:" +
                            TransformKindName(*va.input_edges[j].transform);
        MATOPT_ASSIGN_OR_RETURN(
            Relation tr,
            RunTransformStage(env, label, *va.input_edges[j].transform, in));
        transformed.push_back(std::move(tr));
        args.push_back(&transformed.back());
      } else {
        args.push_back(&in);
      }
    }

    // The implementation stage. The output skeleton follows the annotated
    // output format; the estimated sparsity stays on the relation (like
    // the single-node path) while tuples get measured payload sparsities.
    std::string label = "v" + std::to_string(v) + ":" + ImplKindName(va.impl);
    FormatId out_format = va.output_format;
    double out_sparsity = FormatOf(out_format).sparse() ? vx.sparsity : 1.0;
    Relation skeleton =
        MakeDryRelation(vx.type, out_format, out_sparsity, env.cluster);
    MATOPT_ASSIGN_OR_RETURN(
        Relation out_rel,
        RunExchangeStage(env, label, TupleStage{va.impl, &vx, args},
                         RoutesFor(va.impl), {}, std::move(skeleton)));
    relations[v] = std::move(out_rel);
  }

  for (int sink : graph.Sinks()) {
    auto it = relations.find(sink);
    if (it == relations.end()) {
      return Status::Internal("sink vertex " + std::to_string(sink) +
                              " produced no relation");
    }
    sinks->emplace(sink, std::move(it->second));
  }
  return Status::OK();
}

}  // namespace

Result<ExecResult> ExecuteDistributedPlan(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    std::unordered_map<int, Relation> inputs, int num_workers,
    Transport* transport, bool fusion) {
  if (num_workers < 1) {
    return Status::InvalidArgument("distributed execution needs >= 1 worker");
  }
  auto make_dry_inputs = [&] {
    std::unordered_map<int, Relation> dry;
    for (const auto& [v, rel] : inputs) {
      dry.emplace(v,
                  MakeDryRelation(rel.type, rel.format, rel.sparsity, cluster));
    }
    return dry;
  };

  // Pass 1 — simulation: the unchanged single-node dry pass supplies the
  // full simulated ExecStats, runs the pre-flight plan analysis, and
  // reproduces the sim-side budget failures.
  PlanExecutor sim(catalog, cluster);
  sim.set_fusion(fusion);
  sim.set_dist_workers(0);
  MATOPT_ASSIGN_OR_RETURN(ExecResult result,
                          sim.Execute(graph, annotation, make_dry_inputs()));
  result.stats.dist.num_workers = num_workers;

  // Pass 2 — projection: walk the same stage sequence over dry relations
  // and predict each exchange's traffic from relation metadata.
  PassEnv proj{catalog,
               cluster,
               graph,
               annotation,
               num_workers,
               /*data=*/false,
               /*transport=*/nullptr,
               &result.stats.dist.stages};
  proj.dist = &result.stats.dist;
  std::unordered_map<int, Relation> dry_sinks;
  MATOPT_RETURN_IF_ERROR(RunPass(proj, make_dry_inputs(), &dry_sinks));

  // Pass 3 — data: real exchanges over the transport, per-shard kernels,
  // measured counters filled into the records the projection pass wrote.
  // Budget enforcement lives in PlanStage, so the fallback transport is
  // deliberately unbounded: violations surface as the coordinator's typed
  // errors, never as a mid-flight channel failure.
  std::unique_ptr<InMemoryTransport> fallback;
  if (transport == nullptr) {
    fallback = std::make_unique<InMemoryTransport>(TransportLimits{});
    transport = fallback.get();
  }
  std::vector<double> busy(num_workers, 0.0);
  PassEnv data{catalog,
               cluster,
               graph,
               annotation,
               num_workers,
               /*data=*/true,
               transport,
               &result.stats.dist.stages};
  data.dist = &result.stats.dist;
  data.busy = &busy;
  std::unordered_map<int, Relation> sinks;
  MATOPT_RETURN_IF_ERROR(RunPass(data, std::move(inputs), &sinks));
  if (data.record_idx != result.stats.dist.stages.size()) {
    return Status::Internal("data pass executed fewer stages than projected");
  }

  result.stats.dist.worker_busy_seconds = std::move(busy);
  result.sinks = std::move(sinks);
  return result;
}

}  // namespace matopt::dist
