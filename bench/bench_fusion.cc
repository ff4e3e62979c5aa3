// Operator-fusion A/B benchmark (DESIGN.md §15): data-mode executor runs
// of the FFNN training step, a matmul + elementwise-epilogue chain, and
// the block-inverse workload with fused-group execution off and on.
// Verifies sinks are bit-identical to the fusion-off single-thread
// reference at 1/2/4 threads and under the sharded runtime at 1/4
// workers, reports the payload bytes the fused chains never materialized,
// and emits BENCH_fusion.json. Self-checking: exits 2 on any sink
// mismatch, 1 when the FFNN bytes-materialized reduction falls below 20%
// or fusion regresses wall-clock by more than 5% (with an absolute
// guard so CI noise on tiny runs cannot trip it). `--quick` runs one
// repetition at reduced sizes for CI smoke.

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/format/format.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

FormatId Find(const Format& f) {
  const auto& all = BuiltinFormats();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == f) return static_cast<FormatId>(i);
  }
  return kNoFormat;
}

struct Workload {
  std::string name;
  ComputeGraph graph;
  Annotation annotation;
  std::unordered_map<int, DenseMatrix> inputs;
};

void SeedInputs(Workload* w) {
  for (int v = 0; v < w->graph.num_vertices(); ++v) {
    const Vertex& vx = w->graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    w->inputs.emplace(v,
                      GaussianMatrix(vx.type.rows(), vx.type.cols(), 300 + v));
  }
}

Workload MakeFfnn(const Catalog& catalog, const CostModel& model,
                  const ClusterConfig& cluster, bool quick) {
  FfnnConfig cfg;
  cfg.batch = quick ? 256 : 512;
  cfg.features = quick ? 256 : 512;
  cfg.hidden = quick ? 256 : 512;
  cfg.labels = 10;
  Workload w;
  w.name = "ffnn_step";
  w.graph = BuildFfnnGraph(cfg).value();
  w.annotation = Optimize(w.graph, catalog, model, cluster).value().annotation;
  SeedInputs(&w);
  return w;
}

/// Matmul root with a long elementwise epilogue — the fusion-heavy shape:
/// relu(x.w + bias) scaled, masked by an input, and shifted.
Workload MakeElemChain(const Catalog& catalog, const CostModel& model,
                       const ClusterConfig& cluster, bool quick) {
  const int64_t n = quick ? 256 : 512;
  const FormatId rows_fmt = Find({Layout::kRowStrips, 1000, 0});
  const FormatId cols_fmt = Find({Layout::kColStrips, 1000, 0});
  GraphBuilder g;
  int x = g.Input(MatrixType(n, n), rows_fmt, "x");
  int wgt = g.Input(MatrixType(n, n), cols_fmt, "w");
  int bias = g.Input(MatrixType(1, n), rows_fmt, "bias");
  int mask = g.Input(MatrixType(n, n), rows_fmt, "mask");
  int shift = g.Input(MatrixType(n, n), rows_fmt, "shift");
  int mm = g.Op(OpKind::kMatMul, {x, wgt}, "mm");
  int bra = g.Op(OpKind::kBroadcastRowAdd, {mm, bias}, "bra");
  int act = g.Op(OpKind::kRelu, {bra}, "act");
  int scaled = g.Op(OpKind::kScalarMul, {act}, "scaled", 0.5);
  int masked = g.Op(OpKind::kHadamard, {scaled, mask}, "masked");
  g.Op(OpKind::kSub, {masked, shift}, "out");
  Workload w;
  w.name = "elem_chain";
  w.graph = g.Finish().value();
  w.annotation = Optimize(w.graph, catalog, model, cluster).value().annotation;
  SeedInputs(&w);
  return w;
}

Workload MakeBlockInverse(const Catalog& catalog, const CostModel& model,
                          const ClusterConfig& cluster, bool quick) {
  Workload w;
  w.name = "block_inverse";
  w.graph = BuildBlockInverseGraph(quick ? 96 : 192).value();
  w.annotation = Optimize(w.graph, catalog, model, cluster).value().annotation;
  SeedInputs(&w);
  return w;
}

struct RunResult {
  double seconds = 0.0;
  MemoryStats memory;
  std::unordered_map<int, DenseMatrix> sinks;
};

RunResult RunOnce(const Workload& w, const Catalog& catalog,
                  const ClusterConfig& cluster, bool fusion, int threads,
                  int workers, int reps) {
  ThreadPool::SetDefaultThreads(threads);
  PlanExecutor executor(catalog, cluster);
  executor.set_fusion(fusion);
  executor.set_dist_workers(workers);
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    std::unordered_map<int, Relation> relations;
    for (const auto& [v, m] : w.inputs) {
      FormatId fmt = w.graph.vertex(v).input_format;
      relations[v] = MakeRelation(m, fmt, cluster).value();
    }
    Stopwatch watch;
    auto result =
        executor.Execute(w.graph, w.annotation, std::move(relations));
    double secs = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", w.name.c_str(),
                   result.status().ToString().c_str());
      std::exit(2);
    }
    if (rep == 0 || secs < best.seconds) best.seconds = secs;
    if (rep == 0) {
      best.memory = result.value().stats.memory;
      for (const auto& [sink, rel] : result.value().sinks) {
        best.sinks.emplace(sink, MaterializeDense(rel).value());
      }
    }
  }
  ThreadPool::SetDefaultThreads(0);
  return best;
}

bool SameSinks(const RunResult& a, const RunResult& b) {
  if (a.sinks.size() != b.sinks.size()) return false;
  for (const auto& [sink, m] : a.sinks) {
    auto it = b.sinks.find(sink);
    if (it == b.sinks.end() || !(m == it->second)) return false;
  }
  return true;
}

/// Payload bytes the run wrote or transferred for operator outputs —
/// the quantity fusion exists to shrink.
double BytesMaterialized(const MemoryStats& m) {
  return m.bytes_copied + m.bytes_moved;
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
  workloads.push_back(MakeElemChain(catalog, model, cluster, quick));
  workloads.push_back(MakeBlockInverse(catalog, model, cluster, quick));

  struct Row {
    std::string workload;
    int threads;
    int workers;
    bool fusion;
    double seconds;
    MemoryStats memory;
    bool identical;
  };
  std::vector<Row> rows;
  bool all_identical = true;

  std::printf("Operator-fusion A/B (real wall-clock seconds)\n");
  std::printf("%-14s %7s %7s %6s %9s %12s %12s %10s %6s %7s\n", "workload",
              "threads", "workers", "fusion", "seconds", "copiedMB", "movedMB",
              "avoidedMB", "groups", "fusedk");
  struct Config {
    int threads;
    int workers;
  };
  const std::vector<Config> configs = {{1, 0}, {2, 0}, {4, 0}, {1, 1}, {1, 4}};
  for (const Workload& w : workloads) {
    RunResult reference;  // 1 thread, single node, fusion off
    for (const Config& c : configs) {
      for (bool fusion : {false, true}) {
        RunResult r =
            RunOnce(w, catalog, cluster, fusion, c.threads, c.workers, reps);
        bool identical = true;
        if (reference.sinks.empty()) {
          reference = r;
        } else if (!SameSinks(reference, r)) {
          identical = false;
          all_identical = false;
          std::fprintf(stderr,
                       "MISMATCH: %s threads=%d workers=%d fusion=%d differs "
                       "from reference\n",
                       w.name.c_str(), c.threads, c.workers, fusion);
        }
        rows.push_back({w.name, c.threads, c.workers, fusion, r.seconds,
                        r.memory, identical});
        std::printf(
            "%-14s %7d %7d %6s %9.3f %12.1f %12.1f %10.1f %6lld %7lld\n",
            w.name.c_str(), c.threads, c.workers, fusion ? "on" : "off",
            r.seconds, r.memory.bytes_copied / 1e6, r.memory.bytes_moved / 1e6,
            r.memory.fused_bytes_avoided / 1e6,
            static_cast<long long>(r.memory.fused_groups),
            static_cast<long long>(r.memory.fused_kernels));
      }
    }
  }

  // Acceptance summary: bytes-materialized reduction and wall-clock ratio
  // of fusion on vs off (single node, 4 threads).
  bool pass = true;
  double ffnn_reduction = 0.0;
  for (const Workload& w : workloads) {
    const Row *off = nullptr, *on = nullptr;
    for (const Row& r : rows) {
      if (r.workload != w.name || r.threads != 4 || r.workers != 0) continue;
      (r.fusion ? on : off) = &r;
    }
    if (off == nullptr || on == nullptr) continue;
    const double b_off = BytesMaterialized(off->memory);
    const double b_on = BytesMaterialized(on->memory);
    const double reduction = b_off > 0.0 ? 100.0 * (1.0 - b_on / b_off) : 0.0;
    std::printf(
        "%s @4t: bytes materialized %.1f MB -> %.1f MB (%.0f%% reduction, "
        "%.1f MB avoided in %lld group(s)), wall %.3fs -> %.3fs (%.2fx)\n",
        w.name.c_str(), b_off / 1e6, b_on / 1e6, reduction,
        on->memory.fused_bytes_avoided / 1e6,
        static_cast<long long>(on->memory.fused_groups), off->seconds,
        on->seconds, on->seconds > 0.0 ? off->seconds / on->seconds : 0.0);
    if (w.name == "ffnn_step") {
      ffnn_reduction = reduction;
      if (reduction < 20.0) {
        std::fprintf(stderr,
                     "FAIL: ffnn_step bytes-materialized reduction %.1f%% is "
                     "below the 20%% acceptance floor\n",
                     reduction);
        pass = false;
      }
    }
    // >5% wall regression with fusion on fails, but only past an absolute
    // guard so scheduler noise on sub-50ms runs cannot trip CI.
    if (on->seconds > off->seconds * 1.05 && on->seconds - off->seconds > 0.05) {
      std::fprintf(stderr,
                   "FAIL: %s fusion-on wall %.3fs regresses fusion-off %.3fs "
                   "by more than 5%%\n",
                   w.name.c_str(), on->seconds, off->seconds);
      pass = false;
    }
  }
  std::printf("outputs bit-identical across all configurations: %s\n",
              all_identical ? "yes" : "NO");

  const std::string json_path = BenchOutputPath("BENCH_fusion.json");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"identical\": %s,\n  \"ffnn_reduction_pct\": %.1f,\n"
               "  \"results\": [\n",
               all_identical ? "true" : "false", ffnn_reduction);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"workload\": \"%s\", \"threads\": %d, \"workers\": %d, "
        "\"fusion\": %s, \"seconds\": %.6f, \"bytes_copied\": %.0f, "
        "\"bytes_moved\": %.0f, \"fused_bytes_avoided\": %.0f, "
        "\"fused_groups\": %lld, \"fused_kernels\": %lld, "
        "\"identical\": %s}%s\n",
        r.workload.c_str(), r.threads, r.workers, r.fusion ? "true" : "false",
        r.seconds, r.memory.bytes_copied, r.memory.bytes_moved,
        r.memory.fused_bytes_avoided,
        static_cast<long long>(r.memory.fused_groups),
        static_cast<long long>(r.memory.fused_kernels),
        r.identical ? "true" : "false", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_identical) return 2;
  return pass ? 0 : 1;
}
