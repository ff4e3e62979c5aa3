// Memory-layer benchmark: data-mode executor runs of an FFNN training
// step and a square matmul chain (buffer pool, in-place and fused kernels,
// payload moves) at 1 and 8 threads. Verifies the 8-thread sinks are
// bit-identical (memcmp) to the 1-thread run and that no workload copies
// more payload bytes than its recorded baseline, prints wall time and
// allocator statistics, and emits BENCH_exec_memory.json. Exits 1 when
// either check fails. `--quick` runs one repetition at reduced sizes for
// CI smoke.

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

// Recorded bytes_copied of each workload's plan (quick, full sizes); the
// tally is shape-derived, so it is the same at every thread count. Only
// the transformation stages copy.
constexpr double kFfnnBaselineCopied[2] = {1572864.0, 6291456.0};
constexpr double kChainBaselineCopied[2] = {0.0, 0.0};

struct Workload {
  std::string name;
  ComputeGraph graph;
  Annotation annotation;
  std::unordered_map<int, DenseMatrix> inputs;
  double baseline_bytes_copied = 0.0;
};

Workload MakeFfnn(const Catalog& catalog, const CostModel& model,
                  const ClusterConfig& cluster, bool quick) {
  FfnnConfig cfg;
  cfg.batch = quick ? 256 : 512;
  cfg.features = quick ? 256 : 512;
  cfg.hidden = quick ? 256 : 512;
  cfg.labels = 10;
  Workload w;
  w.name = "ffnn_step";
  w.baseline_bytes_copied = kFfnnBaselineCopied[quick ? 0 : 1];
  w.graph = BuildFfnnGraph(cfg).value();
  w.annotation = Optimize(w.graph, catalog, model, cluster).value().annotation;
  for (int v = 0; v < w.graph.num_vertices(); ++v) {
    const Vertex& vx = w.graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    w.inputs.emplace(v,
                     GaussianMatrix(vx.type.rows(), vx.type.cols(), 100 + v));
  }
  return w;
}

Workload MakeChain(const Catalog& catalog, const CostModel& model,
                   const ClusterConfig& cluster, bool quick) {
  const int64_t n = quick ? 192 : 384;
  ChainSizes sizes;
  for (auto& d : sizes.dims) d = {n, n};
  Workload w;
  w.name = "matmul_chain";
  w.baseline_bytes_copied = kChainBaselineCopied[quick ? 0 : 1];
  w.graph = BuildMatMulChainGraph(sizes).value();
  w.annotation = Optimize(w.graph, catalog, model, cluster).value().annotation;
  for (int v = 0; v < w.graph.num_vertices(); ++v) {
    const Vertex& vx = w.graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    w.inputs.emplace(v,
                     GaussianMatrix(vx.type.rows(), vx.type.cols(), 200 + v));
  }
  return w;
}

struct RunResult {
  double seconds = 0.0;
  MemoryStats memory;
  std::vector<ExecStats::StageRecord> stages;
  std::unordered_map<int, DenseMatrix> sinks;
};

RunResult RunOnce(const Workload& w, const Catalog& catalog,
                  const ClusterConfig& cluster, int reps) {
  PlanExecutor executor(catalog, cluster);
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    std::unordered_map<int, Relation> relations;
    for (const auto& [v, m] : w.inputs) {
      FormatId fmt = w.graph.vertex(v).input_format;
      relations[v] = MakeRelation(m, fmt, cluster).value();
    }
    Stopwatch watch;
    auto result = executor.Execute(w.graph, w.annotation,
                                   std::move(relations));
    double secs = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", w.name.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0 || secs < best.seconds) best.seconds = secs;
    if (rep == 0) {
      best.memory = result.value().stats.memory;
      best.stages = result.value().stats.stages;
      for (const auto& [sink, rel] : result.value().sinks) {
        best.sinks.emplace(sink, MaterializeDense(rel).value());
      }
    }
  }
  return best;
}

bool SameSinks(const RunResult& a, const RunResult& b) {
  if (a.sinks.size() != b.sinks.size()) return false;
  for (const auto& [sink, m] : a.sinks) {
    auto it = b.sinks.find(sink);
    if (it == b.sinks.end() || m.rows() != it->second.rows() ||
        m.cols() != it->second.cols() ||
        std::memcmp(m.data(), it->second.data(), sizeof(double) * m.size()) !=
            0) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace matopt

int main(int argc, char** argv) {
  using namespace matopt;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int reps = quick ? 1 : 3;

  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  cluster.broadcast_cap_bytes = 1e12;
  CostModel model = CostModel::Analytic(cluster);

  std::vector<Workload> workloads;
  workloads.push_back(MakeFfnn(catalog, model, cluster, quick));
  workloads.push_back(MakeChain(catalog, model, cluster, quick));

  struct Row {
    std::string workload;
    int threads;
    double seconds;
    MemoryStats memory;
    std::vector<ExecStats::StageRecord> stages;
  };
  std::vector<Row> rows;
  bool all_identical = true;
  bool within_baseline = true;

  std::printf("Execution memory layer (real wall-clock seconds)\n");
  std::printf("%-14s %7s %9s %12s %12s %7s %8s\n", "workload", "threads",
              "seconds", "copiedMB", "movedMB", "allocs-", "poolhit");
  for (const Workload& w : workloads) {
    RunResult reference;  // 1 thread
    for (int threads : {1, 8}) {
      ThreadPool::SetDefaultThreads(threads);
      RunResult r = RunOnce(w, catalog, cluster, reps);
      if (reference.sinks.empty()) {
        reference = r;
      } else if (!SameSinks(reference, r)) {
        all_identical = false;
        std::fprintf(stderr, "MISMATCH: %s threads=%d differs from 1 thread\n",
                     w.name.c_str(), threads);
      }
      if (r.memory.bytes_copied > w.baseline_bytes_copied) {
        within_baseline = false;
        std::fprintf(stderr,
                     "REGRESSION: %s threads=%d copies %.0f bytes, baseline "
                     "%.0f\n",
                     w.name.c_str(), threads, r.memory.bytes_copied,
                     w.baseline_bytes_copied);
      }
      rows.push_back({w.name, threads, r.seconds, r.memory, r.stages});
      std::printf("%-14s %7d %9.3f %12.1f %12.1f %7lld %7.0f%%\n",
                  w.name.c_str(), threads, r.seconds,
                  r.memory.bytes_copied / 1e6, r.memory.bytes_moved / 1e6,
                  static_cast<long long>(r.memory.allocs_avoided),
                  r.memory.pool_hit_rate() * 100.0);
    }
  }
  ThreadPool::SetDefaultThreads(0);

  // Per-stage memory-traffic breakdown (8 threads) so
  // fused and unfused stages are separately attributable: a fused stage
  // shows bytes avoided instead of copied/moved output payloads.
  for (const Row& r : rows) {
    if (r.threads != 8) continue;
    std::printf("\n%s per-stage memory traffic (8 threads)\n",
                r.workload.c_str());
    std::printf("  %-26s %9s %11s %11s %11s %6s\n", "stage", "seconds",
                "copiedMB", "movedMB", "avoidedMB", "fusedk");
    for (const auto& s : r.stages) {
      if (s.mem_bytes_copied == 0.0 && s.mem_bytes_moved == 0.0 &&
          s.mem_fused_bytes_avoided == 0.0 && s.mem_fused_kernels == 0) {
        continue;
      }
      std::printf("  %-26s %9.4f %11.2f %11.2f %11.2f %6lld\n",
                  s.label.c_str(), s.seconds, s.mem_bytes_copied / 1e6,
                  s.mem_bytes_moved / 1e6, s.mem_fused_bytes_avoided / 1e6,
                  static_cast<long long>(s.mem_fused_kernels));
    }
  }

  std::printf("outputs bit-identical across thread counts: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("bytes copied within recorded baselines: %s\n",
              within_baseline ? "yes" : "NO");

  const std::string json_path = BenchOutputPath("BENCH_exec_memory.json");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"identical\": %s,\n  \"within_baseline\": %s,\n"
               "  \"results\": [\n",
               all_identical ? "true" : "false",
               within_baseline ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"workload\": \"%s\", \"threads\": %d, "
        "\"seconds\": %.6f, \"bytes_copied\": %.0f, \"bytes_moved\": %.0f, "
        "\"allocs_avoided\": %lld, \"inplace_kernels\": %lld, "
        "\"fused_kernels\": %lld, \"moved_payloads\": %lld, "
        "\"pool_hit_rate\": %.4f, \"pool_bytes_recycled\": %lld}%s\n",
        r.workload.c_str(), r.threads, r.seconds, r.memory.bytes_copied,
        r.memory.bytes_moved,
        static_cast<long long>(r.memory.allocs_avoided),
        static_cast<long long>(r.memory.inplace_kernels),
        static_cast<long long>(r.memory.fused_kernels),
        static_cast<long long>(r.memory.moved_payloads),
        r.memory.pool_hit_rate(),
        static_cast<long long>(r.memory.pool_bytes_recycled),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return all_identical && within_baseline ? 0 : 1;
}
