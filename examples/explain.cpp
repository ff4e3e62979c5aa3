// EXPLAIN tool: reads a program in the matopt declarative matrix language
// (from a file path in argv[1], or a built-in demo program), optimizes it,
// and prints the physical plan three ways: the annotated compute graph,
// the predicted cost breakdown, and the SimSQL-style SQL the prototype
// would hand to the relational engine (Section 2's views).
//
// Usage: explain [program.mla] [workers]
//
// With MATOPT_WORKERS=N set, small programs are additionally executed on
// the sharded multi-worker runtime and the plan's predicted exchange
// traffic is printed next to the transport's measurements.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "analysis/rewrite_check.h"
#include "common/units.h"
#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/executor.h"
#include "frontend/frontend_lint.h"
#include "frontend/sql_gen.h"
#include "ml/generators.h"

using namespace matopt;

namespace {

const char* kDemoProgram = R"(# One step of logistic-regression-style training.
input X[10000, 60000]  format = row_strips(1000);
input W[60000, 1000]   format = tiles(1000);
input L[10000, 1000]   format = row_strips(1000);

P    = sigmoid(X * W);
D    = P - L;
G    = X' * D;
Wnew = W - 0.01 * G;
output Wnew;
)";

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDemoProgram;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    source = buffer.str();
  }
  int workers = argc > 2 ? std::atoi(argv[2]) : 10;

  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(workers);
  CostModel model = CostModel::Analytic(cluster);

  // Parse + post-parse analysis pipeline: reject broken programs with
  // structured diagnostics before any optimization work.
  DiagnosticList diagnostics;
  auto program = ParseProgramChecked(source, catalog, cluster, &diagnostics);
  for (const Diagnostic& d : diagnostics.diagnostics()) {
    std::fputs(RenderDiagnostic(d, argc > 1 ? argv[1] : "<demo>", source)
                   .c_str(),
               stderr);
  }
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("=== logical compute graph (%d vertices) ===\n%s\n",
              program.value().graph.num_vertices(),
              program.value().graph.ToString().c_str());

  // Logical rewriter in front of the physical search (DESIGN.md §16):
  // every candidate DAG within the rule closure is planned and the global
  // best wins. Everything downstream — dry run, distributed run, SQL —
  // uses the winning (possibly rewritten) graph.
  auto rewritten = OptimizeWithRewrites(program.value().graph, catalog, model,
                                        cluster);
  if (!rewritten.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 rewritten.status().ToString().c_str());
    return 1;
  }
  const ComputeGraph& graph = rewritten.value().graph;
  const PlanResult& plan = rewritten.value().plan;

  DiagnosticList rewrite_diags;
  AnalyzeRewrite(program.value().graph, rewritten.value(), &rewrite_diags);
  for (const Diagnostic& d : rewrite_diags.diagnostics()) {
    std::fputs(RenderDiagnostic(d, argc > 1 ? argv[1] : "<demo>", source)
                   .c_str(),
               stderr);
  }
  if (rewrite_diags.HasErrors()) return 1;

  RewriteStats rewrite_stats;
  rewrite_stats.enabled = RewriteEnabled();
  rewrite_stats.rewritten = rewritten.value().rewritten;
  rewrite_stats.exact = rewritten.value().exact;
  rewrite_stats.budget_hit = rewritten.value().budget_hit;
  rewrite_stats.candidates = rewritten.value().candidates_considered;
  rewrite_stats.baseline_cost = rewritten.value().baseline_cost;
  rewrite_stats.chosen_cost = plan.fused_cost;
  for (const RewriteStep& step : rewritten.value().chain) {
    rewrite_stats.chain.push_back(step.description);
  }
  std::string rewrite_section = rewrite_stats.ToString();
  if (!rewrite_section.empty()) {
    std::printf("=== logical rewrites ===\n%s\n", rewrite_section.c_str());
    if (rewritten.value().rewritten) {
      std::printf("=== rewritten compute graph (%d vertices) ===\n%s\n",
                  graph.num_vertices(), graph.ToString().c_str());
    }
  }

  // The search time is the whole rewrite-aware search; the winner's own
  // search is only one of the candidates planned.
  const int candidates = rewritten.value().candidates_considered;
  std::printf("=== optimized physical plan (predicted %s, searched %d "
              "candidate%s in %.2f s, winner %.2f s) ===\n",
              FormatHms(plan.cost).c_str(), candidates,
              candidates == 1 ? "" : "s", rewritten.value().search_seconds,
              plan.opt_seconds);
  std::printf("beam_pruned=%s (%d vertices hit the %lld-entry table cap%s)\n"
              "%s\n",
              plan.beam_pruned ? "true" : "false", plan.beam_pruned_vertices,
              static_cast<long long>(OptimizerOptions{}.max_table_entries),
              plan.beam_pruned ? "; best within beam, not proven optimal" : "",
              plan.annotation.ToString(graph).c_str());

  PlanExecutor executor(catalog, cluster);
  auto run = executor.DryRun(graph, plan.annotation);
  if (run.ok()) {
    run.value().stats.rewrite = rewrite_stats;
    std::printf("=== simulated execution ===\n%s\n",
                run.value().stats.ToString().c_str());
    std::printf("memory: %s\n\n",
                run.value().stats.memory.ToString().c_str());
  } else {
    std::printf("=== simulated execution failed: %s ===\n\n",
                run.status().ToString().c_str());
  }

  // With MATOPT_WORKERS set, also run the plan for real on the sharded
  // multi-worker runtime (DESIGN.md §12) and print each stage's predicted
  // exchange traffic next to what the transport measured. Gated on input
  // size: paper-scale programs are for dry-run EXPLAIN only.
  int dist_workers = PlanExecutor::DefaultDistWorkers();
  if (dist_workers > 0 && run.ok()) {
    double input_entries = 0.0;
    for (int v = 0; v < graph.num_vertices(); ++v) {
      if (graph.vertex(v).op != OpKind::kInput) continue;
      input_entries += static_cast<double>(graph.vertex(v).type.NumEntries());
    }
    if (input_entries > 4e6) {
      std::printf("=== distributed run skipped: %.0f input entries exceed "
                  "the %d-worker demo cap (4e6) ===\n\n",
                  input_entries, dist_workers);
    } else {
      std::unordered_map<int, Relation> inputs;
      for (int v = 0; v < graph.num_vertices(); ++v) {
        const Vertex& vx = graph.vertex(v);
        if (vx.op != OpKind::kInput) continue;
        if (BuiltinFormats()[vx.input_format].sparse()) {
          inputs[v] = MakeSparseRelation(
                          RandomSparse(vx.type.rows(), vx.type.cols(),
                                       vx.sparsity * vx.type.cols(), 100 + v),
                          vx.input_format, cluster)
                          .value();
        } else {
          inputs[v] = MakeRelation(GaussianMatrix(vx.type.rows(),
                                                  vx.type.cols(), 100 + v),
                                   vx.input_format, cluster)
                          .value();
        }
      }
      PlanExecutor dist_executor(catalog, cluster);
      dist_executor.set_dist_workers(dist_workers);
      auto dist_run =
          dist_executor.Execute(graph, plan.annotation, std::move(inputs));
      if (dist_run.ok()) {
        std::printf("=== distributed execution (measured) ===\n%s\n",
                    dist_run.value().stats.dist.ComparisonTable().c_str());
        // Roofline view of the measured run: what the local kernels
        // actually streamed and sustained, next to the simulated costs.
        std::string roofline = dist_run.value().stats.RooflineString();
        if (!roofline.empty()) {
          std::printf("=== measured kernel roofline ===\n%s", roofline.c_str());
          // Per-stage attribution exists for single-node data runs; the
          // sharded runtime reports the rollup only (workers overlap, so
          // per-stage deltas would be misattributed).
          const ExecStats& st = dist_run.value().stats;
          bool any_stage_kernels = false;
          for (const ExecStats::StageRecord& s : st.stages) {
            any_stage_kernels = any_stage_kernels || s.kernel_flops > 0.0;
          }
          if (any_stage_kernels)
            std::printf("  per stage (stages with kernel work):\n");
          for (const ExecStats::StageRecord& s : st.stages) {
            if (s.kernel_flops <= 0.0) continue;
            std::printf("    %-28s %12s", s.label.c_str(),
                        FormatFlops(s.kernel_flops).c_str());
            std::printf("  %s", FormatIntensity(s.kernel_flops /
                                                std::max(1.0, s.kernel_bytes))
                                    .c_str());
            if (s.kernel_seconds > 0.0) {
              std::printf("  %s", FormatFlopRate(s.kernel_flops /
                                                 s.kernel_seconds)
                                      .c_str());
            }
            std::printf("\n");
          }
          std::printf("\n");
        }
      } else {
        std::printf("=== distributed execution failed: %s ===\n\n",
                    dist_run.status().ToString().c_str());
      }
    }
  }

  std::printf("=== generated SQL ===\n%s",
              GenerateSql(graph, plan.annotation, catalog).c_str());
  return 0;
}
