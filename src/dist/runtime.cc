#include "dist/runtime.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dist/exchange.h"
#include "dist/partition.h"
#include "dist/routing.h"
#include "engine/relation.h"
#include "engine/tuple_compute.h"

namespace matopt::dist {

namespace {

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

struct DataEnv {
  const ClusterConfig& cluster;
  const ComputeGraph& graph;
  int num_workers;
  Transport* transport;
  DistStats* dist;
  std::vector<double>* busy;
};

/// Runs one listed stage on real data: plans the moves and enforces the
/// budgets on the measured arguments, executes the phased send / gather /
/// compute protocol — each worker filling its out slots through the
/// tuple-compute table — fills the measured side of `rec`, and returns
/// the stage's output relation.
Result<Relation> RunStage(const DataEnv& env, const Stage& st,
                          const std::vector<const Relation*>& args,
                          DistExchangeRecord& rec) {
  const int W = env.num_workers;
  MATOPT_ASSIGN_OR_RETURN(StagePlan plan,
                          PlanStage(st, args, env.cluster, W));
  Relation skeleton = st.skeleton;
  const TupleStage stage{
      st.impl, st.impl ? &env.graph.vertex(st.vertex) : nullptr, args};

  std::vector<ArgExchange> exchanges(args.size());
  for (size_t j = 0; j < args.size(); ++j) {
    std::string ex_label = st.label + ":arg" + std::to_string(j);
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
                  /*measure_sparsity=*/st.transform.has_value(), &skeleton);

  // Measured side of the record, from the transport/exchange counters.
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

}  // namespace

Result<ExecResult> ExecuteDistributedPlan(
    const Catalog& catalog, const ClusterConfig& cluster,
    const ComputeGraph& graph, const Annotation& annotation,
    std::unordered_map<int, Relation> inputs, int num_workers,
    Transport* transport, bool fusion) {
  if (num_workers < 1) {
    return Status::InvalidArgument("distributed execution needs >= 1 worker");
  }
  std::unordered_map<int, Relation> dry_inputs;
  for (const auto& [v, rel] : inputs) {
    dry_inputs.emplace(
        v, MakeDryRelation(rel.type, rel.format, rel.sparsity, cluster));
  }

  // Pass 1 — simulation: the unchanged single-node dry pass supplies the
  // full simulated ExecStats, runs the pre-flight plan analysis, and
  // reproduces the sim-side budget failures.
  PlanExecutor sim(catalog, cluster);
  sim.set_fusion(fusion);
  sim.set_dist_workers(0);
  MATOPT_ASSIGN_OR_RETURN(ExecResult result,
                          sim.Execute(graph, annotation, dry_inputs));
  DistStats& dist = result.stats.dist;
  dist.num_workers = num_workers;

  // The plan's exchange stages, once. Each stage's predicted traffic comes
  // from its dry arguments, before any data moves.
  MATOPT_ASSIGN_OR_RETURN(
      std::vector<Stage> stages,
      BuildStageList(catalog, cluster, graph, annotation, dry_inputs,
                     num_workers));
  auto skeleton_of = [&stages](int i) -> const Relation& {
    return stages[i].skeleton;
  };
  for (const Stage& st : stages) {
    MATOPT_ASSIGN_OR_RETURN(
        StagePlan plan, PlanStage(st, StageArgs(st, dry_inputs, skeleton_of),
                                  cluster, num_workers));
    DistExchangeRecord rec;
    rec.label = st.label;
    rec.predicted_shuffle_bytes = plan.shuffle_bytes;
    rec.predicted_broadcast_bytes = plan.broadcast_bytes;
    rec.predicted_tuples = plan.tuples;
    rec.shard_skew = ShardSkew(st.skeleton, num_workers);
    dist.stages.push_back(std::move(rec));
  }

  // Pass 2 — data: the same list over real relations — exchanges over the
  // transport, per-shard kernels, measured counters into each stage's
  // record. Budget enforcement lives in PlanStage, so the fallback
  // transport is deliberately unbounded: violations surface as the
  // coordinator's typed errors, never as a mid-flight channel failure.
  std::unique_ptr<InMemoryTransport> fallback;
  if (transport == nullptr) {
    fallback = std::make_unique<InMemoryTransport>(TransportLimits{});
    transport = fallback.get();
  }
  std::vector<double> busy(num_workers, 0.0);
  const DataEnv env{cluster, graph, num_workers, transport, &dist, &busy};
  // A stage's output is dropped once its last reader has run.
  std::vector<size_t> last_read(stages.size(), stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    for (const StageArg& a : stages[i].args) {
      if (a.stage >= 0) last_read[a.stage] = i;
    }
  }
  std::vector<Relation> outs(stages.size());
  auto output_of = [&outs](int i) -> const Relation& { return outs[i]; };
  for (size_t i = 0; i < stages.size(); ++i) {
    const Stage& st = stages[i];
    MATOPT_ASSIGN_OR_RETURN(
        outs[i],
        RunStage(env, st, StageArgs(st, inputs, output_of), dist.stages[i]));
    for (const StageArg& a : st.args) {
      if (a.stage >= 0 && last_read[a.stage] == i) outs[a.stage] = Relation();
    }
  }

  // Sinks: unread graph inputs and unread implementation stages.
  std::unordered_map<int, Relation> sinks;
  for (int sink : graph.Sinks()) {
    if (graph.vertex(sink).op == OpKind::kInput) {
      sinks.emplace(sink, std::move(inputs.at(sink)));
    }
  }
  for (size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].impl.has_value() && last_read[i] == stages.size()) {
      sinks.emplace(stages[i].vertex, std::move(outs[i]));
    }
  }
  dist.worker_busy_seconds = std::move(busy);
  result.sinks = std::move(sinks);
  return result;
}

}  // namespace matopt::dist
