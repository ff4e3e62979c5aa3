// Thread-scaling sweep for the shared pool: local Gemm, data-mode
// executor replay of an FFNN step, and the frontier-DP optimizer, each at
// 1/2/4/8 threads. Real wall-clock (not simulated) seconds; emits
// BENCH_parallel.json next to the human-readable table. On a single-core
// host the sweep degenerates to measuring the parallel paths' overhead.
// The frontier DP is sequential (DESIGN.md §8), so its row is expected to
// stay near 1.0x: it shows that the pool width does not slow planning.

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "la/kernels.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

double TimeGemm() {
  DenseMatrix a = GaussianMatrix(1024, 1024, 1);
  DenseMatrix b = GaussianMatrix(1024, 1024, 2);
  Gemm(a, b);  // warm-up
  Stopwatch watch;
  DenseMatrix c = Gemm(a, b);
  double elapsed = watch.ElapsedSeconds();
  if (c(0, 0) == 12345.6789) std::printf(" ");  // keep the result live
  return elapsed;
}

double TimeExecutorReplay(const ComputeGraph& graph,
                          const Annotation& annotation,
                          const Catalog& catalog,
                          const ClusterConfig& cluster,
                          const std::unordered_map<int, DenseMatrix>& inputs) {
  PlanExecutor executor(catalog, cluster);
  std::unordered_map<int, Relation> relations;
  for (const auto& [v, m] : inputs) {
    FormatId fmt = graph.vertex(v).input_format;
    relations[v] = MakeRelation(m, fmt, cluster).value();
  }
  Stopwatch watch;
  auto result = executor.Execute(graph, annotation, std::move(relations));
  if (!result.ok()) {
    std::fprintf(stderr, "executor replay failed: %s\n",
                 result.status().ToString().c_str());
    return -1.0;
  }
  return watch.ElapsedSeconds();
}

double TimeFrontier(const ComputeGraph& graph, const Catalog& catalog,
                    const CostModel& model, const ClusterConfig& cluster) {
  OptimizerOptions options;
  options.max_table_entries = 100000;
  Stopwatch watch;
  auto plan = FrontierOptimize(graph, catalog, model, cluster, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "frontier failed: %s\n",
                 plan.status().ToString().c_str());
    return -1.0;
  }
  return watch.ElapsedSeconds();
}

}  // namespace
}  // namespace matopt

int main() {
  using namespace matopt;

  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  cluster.broadcast_cap_bytes = 1e12;
  CostModel model = CostModel::Analytic(cluster);

  // Data-mode FFNN step at a modest size: the executor parallelizes per
  // stage across independent tuple payloads.
  FfnnConfig cfg;
  cfg.batch = 512;
  cfg.features = 512;
  cfg.hidden = 512;
  cfg.labels = 10;
  ComputeGraph ffnn = BuildFfnnGraph(cfg).value();
  Annotation ffnn_plan =
      Optimize(ffnn, catalog, model, cluster).value().annotation;
  std::unordered_map<int, DenseMatrix> ffnn_inputs;
  for (int v = 0; v < ffnn.num_vertices(); ++v) {
    const Vertex& vx = ffnn.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    ffnn_inputs.emplace(
        v, GaussianMatrix(vx.type.rows(), vx.type.cols(), 100 + v));
  }

  // Optimizer-side workload: the frontier DP over the FFNN graph.
  FfnnConfig opt_cfg;
  ComputeGraph opt_graph = BuildFfnnGraph(opt_cfg).value();

  struct Row {
    const char* bench;
    int threads;
    double seconds;
  };
  std::vector<Row> rows;

  std::printf("Parallel scaling (real wall-clock seconds)\n");
  std::printf("%-18s %8s %12s %9s\n", "benchmark", "threads", "seconds",
              "speedup");
  for (const char* bench : {"gemm_1024", "ffnn_executor", "frontier_dp"}) {
    double base = -1.0;
    for (int threads : kThreadCounts) {
      ThreadPool::SetDefaultThreads(threads);
      double secs = -1.0;
      if (std::string(bench) == "gemm_1024") {
        secs = TimeGemm();
      } else if (std::string(bench) == "ffnn_executor") {
        secs = TimeExecutorReplay(ffnn, ffnn_plan, catalog, cluster,
                                  ffnn_inputs);
      } else {
        secs = TimeFrontier(opt_graph, catalog, model, cluster);
      }
      if (base < 0.0) base = secs;
      rows.push_back({bench, threads, secs});
      std::printf("%-18s %8d %12.3f %8.2fx\n", bench, threads, secs,
                  secs > 0.0 ? base / secs : 0.0);
    }
  }
  ThreadPool::SetDefaultThreads(0);

  const std::string json_path = BenchOutputPath("BENCH_parallel.json");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"hardware_threads\": %d,\n  \"results\": [\n",
               ThreadPool::DefaultThreads());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"bench\": \"%s\", \"threads\": %d, \"seconds\": "
                 "%.6f}%s\n",
                 rows[i].bench, rows[i].threads, rows[i].seconds,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
