// Logical-rewriter A/B benchmark (DESIGN.md §16): plans the three paper
// programs with the rewriter forced off and on (in-process via
// OverrideRewriteEnabled, the same switch the MATOPT_REWRITE env knob
// feeds) and checks the cost contract: the chosen plan's fused cost never
// exceeds the unrewritten baseline, the knob-off search reproduces the
// baseline, and the matmul chain (size set 1) must pick a rewritten DAG
// with strictly lower planner cost. Execution-scale variants of the same
// programs then run both plans for real: every sink must match the naive
// reference interpreter within the accumulation tolerance, and exact
// rewrite chains must be bit-identical to the original under the
// chunking-free reference semantics. Emits BENCH_rewrite.json, with the
// wall time of each rewrite-aware search (`plan_off_seconds`,
// `plan_on_seconds`: RewrittenPlan::search_seconds) next to execution,
// which is timed as the median and min/max over 5 repetitions per plan.
// Self-checking: exits 2 on any value mismatch, 1 on any cost-contract
// violation. `--quick` runs one repetition at reduced sizes for CI smoke.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "fuzz/reference.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

struct Workload {
  std::string name;
  ComputeGraph graph;
  bool execute = false;          // run both plans in data mode
  bool require_strict_win = false;  // a rewrite must beat the baseline
  RewriteOptions rewrite;
};

std::map<int, DenseMatrix> SeedInputs(const ComputeGraph& graph) {
  std::map<int, DenseMatrix> inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    inputs.emplace(v, GaussianMatrix(vx.type.rows(), vx.type.cols(), 700 + v));
  }
  return inputs;
}

/// Wall-clock seconds of one plan's executions; -1 when not executed.
struct Timing {
  double median = -1.0;
  double min = -1.0;
  double max = -1.0;
};

std::string FormatTiming(const Timing& t) {
  if (t.median < 0) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f [%.4f,%.4f]", t.median, t.min,
                t.max);
  return buf;
}

/// Executes `annotation` over `graph` with the given dense inputs and
/// returns the materialized sinks plus the wall-clock spread over `reps`.
struct ExecResult {
  Timing seconds;
  std::map<int, DenseMatrix> sinks;
};

Result<ExecResult> RunPlan(const ComputeGraph& graph,
                           const Annotation& annotation,
                           const std::map<int, DenseMatrix>& inputs,
                           const Catalog& catalog,
                           const ClusterConfig& cluster, int reps) {
  ThreadPool::SetDefaultThreads(4);
  PlanExecutor executor(catalog, cluster);
  ExecResult best;
  std::vector<double> secs;
  for (int rep = 0; rep < reps; ++rep) {
    std::unordered_map<int, Relation> relations;
    for (const auto& [v, m] : inputs) {
      FormatId fmt = graph.vertex(v).input_format;
      auto rel = MakeRelation(m, fmt, cluster);
      if (!rel.ok()) {
        ThreadPool::SetDefaultThreads(0);
        return rel.status();
      }
      relations[v] = std::move(rel.value());
    }
    Stopwatch watch;
    auto result = executor.Execute(graph, annotation, std::move(relations));
    secs.push_back(watch.ElapsedSeconds());
    if (!result.ok()) {
      ThreadPool::SetDefaultThreads(0);
      return result.status();
    }
    if (rep == 0) {
      for (const auto& [sink, rel] : result.value().sinks) {
        auto dense = MaterializeDense(rel);
        if (!dense.ok()) {
          ThreadPool::SetDefaultThreads(0);
          return dense.status();
        }
        best.sinks.emplace(sink, std::move(dense.value()));
      }
    }
  }
  ThreadPool::SetDefaultThreads(0);
  std::sort(secs.begin(), secs.end());
  const size_t n = secs.size();
  best.seconds.median =
      n % 2 == 1 ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
  best.seconds.min = secs.front();
  best.seconds.max = secs.back();
  return best;
}

/// The matmul chain of Section 8.2 scaled down to execution size; keeps
/// the rank-1 T2 = C x D shape that makes re-association profitable.
ComputeGraph MakeExecChain(bool quick) {
  const int64_t s = quick ? 1 : 2;
  ChainSizes sizes;
  sizes.dims = {{{64 * s, 192 * s},
                 {192 * s, 320 * s},
                 {320 * s, 1},
                 {1, 320 * s},
                 {320 * s, 64 * s},
                 {320 * s, 64 * s}}};
  return BuildMatMulChainGraph(sizes).value();
}

ComputeGraph MakeExecFfnn(bool quick) {
  FfnnConfig cfg;
  cfg.batch = quick ? 256 : 512;
  cfg.features = quick ? 256 : 512;
  cfg.hidden = quick ? 256 : 512;
  cfg.labels = 10;
  return BuildFfnnGraph(cfg).value();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace
}  // namespace matopt

int main(int argc, char** argv) {
  using namespace matopt;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int reps = quick ? 1 : 5;

  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  cluster.broadcast_cap_bytes = 1e12;
  CostModel model = CostModel::Analytic(cluster);

  // One capped option set for every search on both sides of the A/B:
  // rewritten FFNN candidates widen the live frontier, so an uncapped DP
  // would dominate the benchmark without changing any verdict.
  OptimizerOptions optimizer;
  optimizer.max_table_entries = 20000;

  RewriteOptions deep;   // chains are cheap to plan — full closure
  deep.max_candidates = 16;
  RewriteOptions shallow;  // FFNN-sized graphs — bounded closure
  shallow.max_depth = 2;
  shallow.max_candidates = 8;

  std::vector<Workload> workloads;
  workloads.push_back({"chain_set1", BuildMatMulChainGraph(ChainSizeSet(1)).value(),
                       /*execute=*/false, /*require_strict_win=*/true, deep});
  workloads.push_back({"block_inverse", BuildBlockInverseGraph().value(),
                       false, false, deep});
  workloads.push_back({"ffnn_step",
                       [] {
                         FfnnConfig cfg;
                         cfg.labels = 10;
                         return BuildFfnnGraph(cfg).value();
                       }(),
                       false, false, shallow});
  workloads.push_back({"chain_exec", MakeExecChain(quick), true, true, deep});
  workloads.push_back({"block_inverse_exec",
                       BuildBlockInverseGraph(quick ? 96 : 192).value(), true,
                       false, deep});
  workloads.push_back({"ffnn_exec", MakeExecFfnn(quick), true, false, shallow});

  struct Row {
    std::string workload;
    int candidates = 1;
    bool budget_hit = false;
    bool rewritten = false;
    bool exact = true;
    std::string chain;
    double baseline_cost = 0.0;
    double chosen_cost = 0.0;
    Timing off_seconds;
    Timing on_seconds;
    double plan_off_seconds = 0.0;
    double plan_on_seconds = 0.0;
    bool values_ok = true;
  };
  std::vector<Row> rows;
  bool cost_ok = true;
  bool values_ok = true;

  std::printf("Logical-rewriter A/B (MATOPT_REWRITE off vs on)\n");
  std::printf("off_s / on_s: median [min,max] over %d execution(s)\n", reps);
  std::printf("%-20s %5s %9s %6s %14s %14s %12s %9s %24s %24s  %s\n",
              "workload", "cands", "rewritten", "exact", "baseline", "chosen",
              "delta", "plan_on_s", "off_s", "on_s", "chain");

  for (const Workload& w : workloads) {
    Row row;
    row.workload = w.name;

    OverrideRewriteEnabled(false);
    auto off = OptimizeWithRewrites(w.graph, catalog, model, cluster, optimizer,
                                    w.rewrite);
    OverrideRewriteEnabled(true);
    auto on = OptimizeWithRewrites(w.graph, catalog, model, cluster, optimizer,
                                   w.rewrite);
    ClearRewriteOverride();
    if (!off.ok() || !on.ok()) {
      std::fprintf(stderr, "%s: planning failed: %s\n", w.name.c_str(),
                   (!off.ok() ? off.status() : on.status()).ToString().c_str());
      return 2;
    }
    const RewrittenPlan& chosen = on.value();
    row.candidates = chosen.candidates_considered;
    row.budget_hit = chosen.budget_hit;
    row.rewritten = chosen.rewritten;
    row.exact = chosen.exact;
    row.chain = chosen.ChainString();
    row.baseline_cost = chosen.baseline_cost;
    row.chosen_cost = chosen.plan.fused_cost;
    row.plan_off_seconds = off.value().search_seconds;
    row.plan_on_seconds = chosen.search_seconds;

    // Cost contract: knob-off reproduces the baseline; the chosen plan
    // never exceeds it; strict-win workloads must actually improve.
    if (off.value().rewritten || off.value().candidates_considered != 1) {
      std::fprintf(stderr, "FAIL: %s planned a rewrite with the knob off\n",
                   w.name.c_str());
      cost_ok = false;
    }
    const double baseline = chosen.baseline_cost;
    if (std::fabs(off.value().plan.fused_cost - baseline) >
        1e-6 * std::fabs(baseline) + 1e-9) {
      std::fprintf(stderr,
                   "FAIL: %s knob-off cost %.6g != rewrite baseline %.6g\n",
                   w.name.c_str(), off.value().plan.fused_cost, baseline);
      cost_ok = false;
    }
    if (chosen.plan.fused_cost > baseline * (1.0 + 1e-9) + 1e-9) {
      std::fprintf(stderr,
                   "FAIL: %s chosen cost %.6g exceeds baseline %.6g\n",
                   w.name.c_str(), chosen.plan.fused_cost, baseline);
      cost_ok = false;
    }
    if (w.require_strict_win && !(chosen.rewritten && chosen.CostDelta() > 0)) {
      std::fprintf(stderr,
                   "FAIL: %s expected a strictly cheaper rewritten DAG "
                   "(rewritten=%d, delta=%.6g)\n",
                   w.name.c_str(), chosen.rewritten ? 1 : 0,
                   chosen.CostDelta());
      cost_ok = false;
    }

    if (w.execute) {
      std::map<int, DenseMatrix> inputs = SeedInputs(w.graph);
      auto reference = fuzz::EvaluateReference(w.graph, inputs);
      auto off_run = RunPlan(w.graph, off.value().plan.annotation, inputs,
                             catalog, cluster, reps);
      if (!reference.ok() || !off_run.ok()) {
        std::fprintf(stderr, "%s: baseline execution failed\n", w.name.c_str());
        return 2;
      }
      row.off_seconds = off_run.value().seconds;
      for (const auto& [sink, ref] : reference.value()) {
        auto it = off_run.value().sinks.find(sink);
        if (it == off_run.value().sinks.end() ||
            !AllClose(it->second, ref, 1e-6, 1e-6)) {
          std::fprintf(stderr, "MISMATCH: %s baseline sink v%d vs reference\n",
                       w.name.c_str(), sink);
          row.values_ok = values_ok = false;
        }
      }

      // The chosen side: remap inputs/sinks through the vertex map when a
      // rewrite won; exact chains must additionally be bit-identical to
      // the original under the chunking-free reference semantics.
      std::map<int, DenseMatrix> on_inputs;
      for (const auto& [v, m] : inputs) {
        int mv = chosen.rewritten ? chosen.vertex_map[v] : v;
        if (mv >= 0) on_inputs.emplace(mv, m);
      }
      if (chosen.rewritten && chosen.exact) {
        auto ref_rw = fuzz::EvaluateReference(chosen.graph, on_inputs);
        if (!ref_rw.ok()) {
          std::fprintf(stderr, "%s: rewritten reference failed\n",
                       w.name.c_str());
          return 2;
        }
        for (const auto& [sink, ref] : reference.value()) {
          int ms = chosen.vertex_map[sink];
          auto it = ref_rw.value().find(ms);
          if (it == ref_rw.value().end() || !(it->second == ref)) {
            std::fprintf(stderr,
                         "MISMATCH: %s exact chain [%s] is not bit-identical "
                         "at sink v%d\n",
                         w.name.c_str(), row.chain.c_str(), sink);
            row.values_ok = values_ok = false;
          }
        }
      }
      auto on_run = RunPlan(chosen.graph, chosen.plan.annotation, on_inputs,
                            catalog, cluster, reps);
      if (!on_run.ok()) {
        std::fprintf(stderr, "%s: rewritten execution failed\n",
                     w.name.c_str());
        return 2;
      }
      row.on_seconds = on_run.value().seconds;
      for (const auto& [sink, ref] : reference.value()) {
        int ms = chosen.rewritten ? chosen.vertex_map[sink] : sink;
        auto it = on_run.value().sinks.find(ms);
        if (it == on_run.value().sinks.end() ||
            !AllClose(it->second, ref, 1e-6, 1e-6)) {
          std::fprintf(stderr,
                       "MISMATCH: %s rewritten sink v%d (mapped v%d) vs "
                       "reference\n",
                       w.name.c_str(), sink, ms);
          row.values_ok = values_ok = false;
        }
      }
    }

    std::printf("%-20s %5d %9s %6s %14.6g %14.6g %12.6g %9.3f %24s %24s  %s\n",
                row.workload.c_str(), row.candidates,
                row.rewritten ? "yes" : "no", row.exact ? "yes" : "no",
                row.baseline_cost, row.chosen_cost,
                row.baseline_cost - row.chosen_cost, row.plan_on_seconds,
                FormatTiming(row.off_seconds).c_str(),
                FormatTiming(row.on_seconds).c_str(),
                row.chain.empty() ? "(original)" : row.chain.c_str());
    rows.push_back(row);
  }

  std::printf("cost contract: %s; values: %s\n", cost_ok ? "ok" : "VIOLATED",
              values_ok ? "ok" : "MISMATCH");

  const std::string json_path = BenchOutputPath("BENCH_rewrite.json");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"cost_ok\": %s,\n  \"values_ok\": %s,\n"
                    "  \"reps\": %d,\n  \"results\": [\n",
               cost_ok ? "true" : "false", values_ok ? "true" : "false", reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"workload\": \"%s\", \"candidates\": %d, \"budget_hit\": %s, "
        "\"rewritten\": %s, \"exact\": %s, \"baseline_cost\": %.6f, "
        "\"chosen_cost\": %.6f, \"off_seconds\": %.6f, "
        "\"off_min_seconds\": %.6f, \"off_max_seconds\": %.6f, "
        "\"on_seconds\": %.6f, \"on_min_seconds\": %.6f, "
        "\"on_max_seconds\": %.6f, "
        "\"plan_off_seconds\": %.6f, \"plan_on_seconds\": %.6f, "
        "\"values_ok\": %s, \"chain\": \"%s\"}%s\n",
        r.workload.c_str(), r.candidates, r.budget_hit ? "true" : "false",
        r.rewritten ? "true" : "false", r.exact ? "true" : "false",
        r.baseline_cost, r.chosen_cost, r.off_seconds.median,
        r.off_seconds.min, r.off_seconds.max, r.on_seconds.median,
        r.on_seconds.min, r.on_seconds.max, r.plan_off_seconds,
        r.plan_on_seconds, r.values_ok ? "true" : "false",
        JsonEscape(r.chain).c_str(),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  if (!values_ok) return 2;
  return cost_ok ? 0 : 1;
}
