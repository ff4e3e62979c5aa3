// Golden stage records of the sharded runtime (DESIGN.md §12) and of the
// dataflow analyzer's per-stage bounds (§14).
//
// For dist_test's FFNN, block-inverse and matmul-chain fixtures and for one
// hand-annotated plan with a dense-to-sparse transformation and a sparse
// broadcast, every DistExchangeRecord (label, predicted and measured
// shuffle/broadcast bytes, tuples, shard skew), dist.messages and a digest of
// every sink's bits are pinned at 1, 2, 4 and 7 workers. Dense stages alone
// would be pinned by predicted == measured; the sparse plan is where the two
// sides differ, so its records and its ComputeDistStageBounds intervals are
// recorded in full. Doubles print with %.17g, so any change in routing,
// accounting or stage order shows as a text diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

std::string G(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// FNV-1a over the sink's dense bits.
std::string Digest(const DenseMatrix& m) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < sizeof(double) * m.size(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001B3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

DenseMatrix DiagDominant(int64_t n, uint64_t seed) {
  DenseMatrix m = GaussianMatrix(n, n, seed);
  for (int64_t i = 0; i < n; ++i) m(i, i) += 5.0 * static_cast<double>(n);
  return m;
}

/// Keeps the entries whose row-major index mod 10 is below `keep`.
DenseMatrix Thinned(int64_t rows, int64_t cols, uint64_t seed, int keep) {
  DenseMatrix m = GaussianMatrix(rows, cols, seed);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if ((i * cols + j) % 10 >= keep) m(i, j) = 0.0;
    }
  }
  return m;
}

/// `golden` opens with a newline so the raw string lines up. On a
/// mismatch, prints the actual text unescaped so it can be diffed.
void ExpectGolden(const std::string& actual, const std::string& golden) {
  EXPECT_EQ("\n" + actual, golden) << "<<<actual\n" << actual << ">>>actual";
}

class DistGoldenTest : public ::testing::Test {
 protected:
  DistGoldenTest() : cluster_(SimSqlProfile(4)) {
    cluster_.broadcast_cap_bytes = 1e12;
    model_ = CostModel::Analytic(cluster_);
  }

  /// dist_test's inputs: square matrices diagonally dominant unless named
  /// in `plain`, the rest Gaussian.
  static std::unordered_map<int, DenseMatrix> MakeInputs(
      const ComputeGraph& graph,
      const std::unordered_set<std::string>& plain = {}) {
    std::unordered_map<int, DenseMatrix> inputs;
    for (int v = 0; v < graph.num_vertices(); ++v) {
      const Vertex& vx = graph.vertex(v);
      if (vx.op != OpKind::kInput) continue;
      if (vx.type.rows() == vx.type.cols() && !plain.count(vx.name)) {
        inputs.emplace(v, DiagDominant(vx.type.rows(), 100 + v));
      } else {
        inputs.emplace(
            v, GaussianMatrix(vx.type.rows(), vx.type.cols(), 100 + v));
      }
    }
    return inputs;
  }

  /// One text block per worker count: the run's totals and sink digests,
  /// then one line per stage record.
  std::string Records(const ComputeGraph& graph, const Annotation& annotation,
                      const std::unordered_map<int, DenseMatrix>& inputs) {
    std::string out;
    for (int workers : {1, 2, 4, 7}) {
      std::unordered_map<int, Relation> relations;
      for (const auto& [v, m] : inputs) {
        FormatId fmt = graph.vertex(v).input_format;
        relations[v] =
            BuiltinFormats()[fmt].sparse()
                ? MakeSparseRelation(SparseMatrix::FromDense(m), fmt, cluster_)
                      .value()
                : MakeRelation(m, fmt, cluster_).value();
      }
      PlanExecutor executor(catalog_, cluster_);
      executor.set_dist_workers(workers);
      auto result = executor.Execute(graph, annotation, std::move(relations));
      if (!result.ok()) return result.status().ToString();
      const DistStats& dist = result.value().stats.dist;
      out += "workers=" + std::to_string(workers) +
             " messages=" + std::to_string(dist.messages) + " sinks=";
      for (int sink : graph.Sinks()) {
        out += " v" + std::to_string(sink) + ":" +
               Digest(MaterializeDense(result.value().sinks.at(sink)).value());
      }
      out += "\n";
      for (const DistExchangeRecord& s : dist.stages) {
        out += "  " + s.label + " shuffle=" + G(s.predicted_shuffle_bytes) +
               "/" + G(s.measured_shuffle_bytes) +
               " bcast=" + G(s.predicted_broadcast_bytes) + "/" +
               G(s.measured_broadcast_bytes) +
               " tuples=" + G(s.predicted_tuples) + "/" +
               G(s.measured_tuples) + " skew=" + G(s.shard_skew) + "\n";
      }
    }
    return out;
  }

  std::string OptimizedRecords(
      const ComputeGraph& graph,
      const std::unordered_map<int, DenseMatrix>& inputs) {
    auto plan = Optimize(graph, catalog_, model_, cluster_);
    if (!plan.ok()) return plan.status().ToString();
    return Records(graph, plan.value().annotation, inputs);
  }

  /// Z = A∘B in a single dense tuple, re-chunked to sparse CSR by a
  /// transformation and broadcast into Z·C against column strips.
  struct SparsePlan {
    ComputeGraph graph;
    Annotation annotation;
    std::unordered_map<int, DenseMatrix> inputs;
  };
  SparsePlan BuildSparsePlan() {
    const auto& formats = BuiltinFormats();
    auto find = [&](const Format& f) {
      for (size_t i = 0; i < formats.size(); ++i) {
        if (formats[i] == f) return static_cast<FormatId>(i);
      }
      return kNoFormat;
    };
    FormatId single = find({Layout::kSingleTuple, 0, 0});
    FormatId sp_single = find({Layout::kSpSingleCsr, 0, 0});
    FormatId col100 = find({Layout::kColStrips, 100, 0});
    SparsePlan p;
    ComputeGraph& g = p.graph;
    int a = g.AddInput(MatrixType(400, 300), single, "A", 0.3);
    int b = g.AddInput(MatrixType(400, 300), single, "B", 0.6);
    int z = g.AddOp(OpKind::kHadamard, {a, b}, "Z").value();
    g.vertex(z).sparsity = 0.18;
    int c = g.AddInput(MatrixType(300, 200), col100, "C", 1.0);
    int y = g.AddOp(OpKind::kMatMul, {z, c}, "Y").value();

    Annotation& ann = p.annotation;
    ann.vertices.resize(g.num_vertices());
    ann.at(a).output_format = single;
    ann.at(b).output_format = single;
    ann.at(c).output_format = col100;
    ann.at(z).impl = ImplKind::kHadamardZip;
    ann.at(z).output_format = single;
    ann.at(z).input_edges = {{single, std::nullopt, single},
                             {single, std::nullopt, single}};
    ann.at(y).impl = ImplKind::kMmSpSingleXColStrips;
    ann.at(y).output_format = col100;
    ann.at(y).input_edges = {
        {single, TransformKind::kDenseToSpSingleCsr, sp_single},
        {col100, std::nullopt, col100}};
    EXPECT_TRUE(ValidateAnnotation(g, ann, catalog_, cluster_).ok());

    p.inputs.emplace(a, Thinned(400, 300, 31, 3));
    p.inputs.emplace(b, Thinned(400, 300, 32, 6));
    p.inputs.emplace(c, GaussianMatrix(300, 200, 33));
    return p;
  }

  std::string Bounds(const SparsePlan& p) {
    DataflowResult flow = RunSparsityDataflow(p.graph);
    std::string out;
    for (int workers : {1, 2, 4, 7}) {
      auto bounds = ComputeDistStageBounds(catalog_, cluster_, p.graph,
                                           p.annotation, flow, workers);
      if (!bounds.ok()) return bounds.status().ToString();
      out += "workers=" + std::to_string(workers) + "\n";
      for (const StageBounds& sb : bounds.value()) {
        out += "  " + sb.label + " v" + std::to_string(sb.vertex) + " e" +
               std::to_string(sb.edge_arg) + " shuffle=[" +
               G(sb.shuffle_bytes.lo) + "," + G(sb.shuffle_bytes.hi) +
               "] bcast=[" + G(sb.broadcast_bytes.lo) + "," +
               G(sb.broadcast_bytes.hi) + "] tuples=" + G(sb.tuples) +
               " inbound=[" + G(sb.max_worker_inbound.lo) + "," +
               G(sb.max_worker_inbound.hi) + "]\n";
        for (const StageBounds::ArgBound& ab : sb.args) {
          out += std::string("    ") + (ab.broadcast ? "bcast" : "route") +
                 " total=[" + G(ab.total_bytes.lo) + "," +
                 G(ab.total_bytes.hi) + "] max_tuple=[" +
                 G(ab.max_tuple_bytes.lo) + "," + G(ab.max_tuple_bytes.hi) +
                 "]\n";
        }
      }
    }
    return out;
  }

  Catalog catalog_;
  ClusterConfig cluster_;
  CostModel model_;
};

TEST_F(DistGoldenTest, FfnnStageRecords) {
  FfnnConfig cfg;
  cfg.batch = 120;
  cfg.features = 250;
  cfg.hidden = 140;
  cfg.labels = 9;
  auto graph = BuildFfnnGraph(cfg);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectGolden(OptimizedRecords(graph.value(), MakeInputs(graph.value())),
               R"golden(
workers=1 messages=0 sinks= v25:f971229877735d95
  v8.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v8:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v9:bra:bcast-vec shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v10:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v11.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v11:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v12:bra:bcast-vec shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v13:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v14:mm:rowstrips*bcast-single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v15:bra:bcast-vec shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v16:softmax:rowstrips shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v17:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v18:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v19:transpose:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v20:mm:rowstrips*bcast-single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v21:relu_grad:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v22:transpose:row->col shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v23:mm:colstrips*rowstrips-outer-sum shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v24:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v25.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v25:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
workers=2 messages=7 sinks= v25:f971229877735d95
  v8.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v8:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=280000/280000 tuples=3/3 skew=2
  v9:bra:bcast-vec shuffle=0/0 bcast=1120/1120 tuples=3/3 skew=2
  v10:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v11.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v11:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=156800/156800 tuples=3/3 skew=2
  v12:bra:bcast-vec shuffle=0/0 bcast=1120/1120 tuples=3/3 skew=2
  v13:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v14:mm:rowstrips*bcast-single shuffle=0/0 bcast=10080/10080 tuples=3/3 skew=2
  v15:bra:bcast-vec shuffle=0/0 bcast=72/72 tuples=3/3 skew=2
  v16:softmax:rowstrips shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v17:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v18:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v19:transpose:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v20:mm:rowstrips*bcast-single shuffle=0/0 bcast=10080/10080 tuples=3/3 skew=2
  v21:relu_grad:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v22:transpose:row->col shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v23:mm:colstrips*rowstrips-outer-sum shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v24:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v25.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v25:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
workers=4 messages=21 sinks= v25:f971229877735d95
  v8.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v8:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=840000/840000 tuples=5/5 skew=4
  v9:bra:bcast-vec shuffle=0/0 bcast=3360/3360 tuples=5/5 skew=4
  v10:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v11.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v11:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=470400/470400 tuples=5/5 skew=4
  v12:bra:bcast-vec shuffle=0/0 bcast=3360/3360 tuples=5/5 skew=4
  v13:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v14:mm:rowstrips*bcast-single shuffle=0/0 bcast=30240/30240 tuples=5/5 skew=4
  v15:bra:bcast-vec shuffle=0/0 bcast=216/216 tuples=5/5 skew=4
  v16:softmax:rowstrips shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v17:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v18:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v19:transpose:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v20:mm:rowstrips*bcast-single shuffle=0/0 bcast=30240/30240 tuples=5/5 skew=4
  v21:relu_grad:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v22:transpose:row->col shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v23:mm:colstrips*rowstrips-outer-sum shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v24:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v25.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v25:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
workers=7 messages=42 sinks= v25:f971229877735d95
  v8.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v8:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=1680000/1680000 tuples=8/8 skew=7
  v9:bra:bcast-vec shuffle=0/0 bcast=6720/6720 tuples=8/8 skew=7
  v10:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v11.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v11:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=940800/940800 tuples=8/8 skew=7
  v12:bra:bcast-vec shuffle=0/0 bcast=6720/6720 tuples=8/8 skew=7
  v13:relu:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v14:mm:rowstrips*bcast-single shuffle=0/0 bcast=60480/60480 tuples=8/8 skew=7
  v15:bra:bcast-vec shuffle=0/0 bcast=432/432 tuples=8/8 skew=7
  v16:softmax:rowstrips shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v17:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v18:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v19:transpose:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v20:mm:rowstrips*bcast-single shuffle=0/0 bcast=60480/60480 tuples=8/8 skew=7
  v21:relu_grad:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v22:transpose:row->col shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v23:mm:colstrips*rowstrips-outer-sum shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v24:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v25.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v25:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
)golden");
}

TEST_F(DistGoldenTest, BlockInverseStageRecords) {
  auto graph = BuildBlockInverseGraph(130);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectGolden(
      OptimizedRecords(graph.value(), MakeInputs(graph.value(), {"B", "C"})),
      R"golden(
workers=1 messages=0 sinks= v11:1a3f2b9bb21d74c0 v13:2e34c37f85928fda v15:ab18e2ffba3bb641
  v4:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v5.arg1:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v5:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v6.arg0:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v6:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v7.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v7:mm:bcast-tiles*tiles shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v8:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v9:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v10:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v11:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v12:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v13:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v14:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v15:add:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
workers=2 messages=1 sinks= v11:1a3f2b9bb21d74c0 v13:2e34c37f85928fda v15:ab18e2ffba3bb641
  v4:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v5.arg1:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v5:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v6.arg0:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v6:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v7.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v7:mm:bcast-tiles*tiles shuffle=0/0 bcast=135200/135200 tuples=3/3 skew=2
  v8:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v9:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v10:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v11:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v12:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v13:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v14:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v15:add:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
workers=4 messages=3 sinks= v11:1a3f2b9bb21d74c0 v13:2e34c37f85928fda v15:ab18e2ffba3bb641
  v4:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v5.arg1:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v5:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v6.arg0:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v6:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v7.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v7:mm:bcast-tiles*tiles shuffle=0/0 bcast=405600/405600 tuples=5/5 skew=4
  v8:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v9:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v10:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v11:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v12:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v13:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v14:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v15:add:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
workers=7 messages=6 sinks= v11:1a3f2b9bb21d74c0 v13:2e34c37f85928fda v15:ab18e2ffba3bb641
  v4:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v5.arg1:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v5:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v6.arg0:transform:to:single shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v6:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v7.arg1:transform:to:tiles(1000) shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v7:mm:bcast-tiles*tiles shuffle=0/0 bcast=811200/811200 tuples=8/8 skew=7
  v8:sub:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v9:inverse:gather-lu shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v10:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v11:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v12:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v13:scalar_mul:map shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v14:mm:single*single shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v15:add:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
)golden");
}

TEST_F(DistGoldenTest, MatMulChainStageRecords) {
  FormatId strips = catalog_.FindFormat({Layout::kRowStrips, 100, 0});
  ASSERT_NE(strips, kNoFormat);
  ComputeGraph g;
  int a = g.AddInput(MatrixType(230, 340), strips, "A");
  int b = g.AddInput(MatrixType(340, 180), strips, "B");
  int c = g.AddInput(MatrixType(180, 270), strips, "C");
  int ab = g.AddOp(OpKind::kMatMul, {a, b}).value();
  g.AddOp(OpKind::kMatMul, {ab, c}).value();
  ExpectGolden(OptimizedRecords(g, MakeInputs(g)), R"golden(
workers=1 messages=0 sinks= v4:0cd9e396d7bd1063
  v3.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=4/4 skew=1
  v3:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=0/0 tuples=4/4 skew=1
  v4.arg1:transform:to:col-strips(1000) shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v4:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=0/0 tuples=4/4 skew=1
workers=2 messages=5 sinks= v4:0cd9e396d7bd1063
  v3.arg1:transform:to:col-strips(1000) shuffle=201600/201600 bcast=0/0 tuples=4/4 skew=2
  v3:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=489600/489600 tuples=5/5 skew=1.1304347826086956
  v4.arg1:transform:to:col-strips(1000) shuffle=172800/172800 bcast=0/0 tuples=2/2 skew=2
  v4:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=388800/388800 tuples=5/5 skew=1.1304347826086956
workers=4 messages=10 sinks= v4:0cd9e396d7bd1063
  v3.arg1:transform:to:col-strips(1000) shuffle=345600/345600 bcast=0/0 tuples=4/4 skew=4
  v3:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=1468800/1468800 tuples=7/7 skew=1.7391304347826086
  v4.arg1:transform:to:col-strips(1000) shuffle=172800/172800 bcast=0/0 tuples=2/2 skew=4
  v4:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=1166400/1166400 tuples=7/7 skew=1.7391304347826086
workers=7 messages=16 sinks= v4:0cd9e396d7bd1063
  v3.arg1:transform:to:col-strips(1000) shuffle=345600/345600 bcast=0/0 tuples=4/4 skew=7
  v3:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=2937600/2937600 tuples=10/10 skew=3.0434782608695654
  v4.arg1:transform:to:col-strips(1000) shuffle=172800/172800 bcast=0/0 tuples=2/2 skew=7
  v4:mm:rowstrips*bcast-colstrips shuffle=0/0 bcast=2332800/2332800 tuples=10/10 skew=3.0434782608695654
)golden");
}

TEST_F(DistGoldenTest, SparseTransformStageRecords) {
  SparsePlan p = BuildSparsePlan();
  ExpectGolden(Records(p.graph, p.annotation, p.inputs), R"golden(
workers=1 messages=0 sinks= v4:7913513aba97c82a
  v2:hadamard:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=1
  v4.arg0:transform:dense->sp-single-csr shuffle=0/0 bcast=0/0 tuples=1/1 skew=1
  v4:mm:bcast-sp-single*colstrips shuffle=0/0 bcast=0/0 tuples=3/3 skew=1
workers=2 messages=1 sinks= v4:7913513aba97c82a
  v2:hadamard:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=2
  v4.arg0:transform:dense->sp-single-csr shuffle=0/0 bcast=0/0 tuples=1/1 skew=2
  v4:mm:bcast-sp-single*colstrips shuffle=0/0 bcast=1923200/579200 tuples=4/4 skew=1
workers=4 messages=3 sinks= v4:7913513aba97c82a
  v2:hadamard:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=4
  v4.arg0:transform:dense->sp-single-csr shuffle=0/0 bcast=0/0 tuples=1/1 skew=4
  v4:mm:bcast-sp-single*colstrips shuffle=0/0 bcast=5769600/1737600 tuples=6/6 skew=2
workers=7 messages=6 sinks= v4:7913513aba97c82a
  v2:hadamard:zip shuffle=0/0 bcast=0/0 tuples=2/2 skew=7
  v4.arg0:transform:dense->sp-single-csr shuffle=0/0 bcast=0/0 tuples=1/1 skew=7
  v4:mm:bcast-sp-single*colstrips shuffle=0/0 bcast=11539200/3475200 tuples=9/9 skew=3.5
)golden");
}

TEST_F(DistGoldenTest, SparseTransformStageBounds) {
  SparsePlan p = BuildSparsePlan();
  ExpectGolden(Bounds(p), R"golden(
workers=1
  v2:hadamard:zip v2 e-1 shuffle=[0,0] bcast=[0,0] tuples=2 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4.arg0:transform:dense->sp-single-csr v4 e0 shuffle=[0,0] bcast=[0,0] tuples=1 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4:mm:bcast-sp-single*colstrips v4 e-1 shuffle=[0,0] bcast=[0,0] tuples=3 inbound=[0,0]
    bcast total=[3200,579200] max_tuple=[3200,579200]
    route total=[480000,480000] max_tuple=[240000,240000]
workers=2
  v2:hadamard:zip v2 e-1 shuffle=[0,0] bcast=[0,0] tuples=2 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4.arg0:transform:dense->sp-single-csr v4 e0 shuffle=[0,0] bcast=[0,0] tuples=1 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4:mm:bcast-sp-single*colstrips v4 e-1 shuffle=[0,0] bcast=[3200,579200] tuples=4 inbound=[0,0]
    bcast total=[3200,579200] max_tuple=[3200,579200]
    route total=[480000,480000] max_tuple=[240000,240000]
workers=4
  v2:hadamard:zip v2 e-1 shuffle=[0,0] bcast=[0,0] tuples=2 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4.arg0:transform:dense->sp-single-csr v4 e0 shuffle=[0,0] bcast=[0,0] tuples=1 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4:mm:bcast-sp-single*colstrips v4 e-1 shuffle=[0,0] bcast=[9600,1737600] tuples=6 inbound=[0,0]
    bcast total=[3200,579200] max_tuple=[3200,579200]
    route total=[480000,480000] max_tuple=[240000,240000]
workers=7
  v2:hadamard:zip v2 e-1 shuffle=[0,0] bcast=[0,0] tuples=2 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4.arg0:transform:dense->sp-single-csr v4 e0 shuffle=[0,0] bcast=[0,0] tuples=1 inbound=[0,0]
    route total=[960000,960000] max_tuple=[960000,960000]
  v4:mm:bcast-sp-single*colstrips v4 e-1 shuffle=[0,0] bcast=[19200,3475200] tuples=9 inbound=[0,0]
    bcast total=[3200,579200] max_tuple=[3200,579200]
    route total=[480000,480000] max_tuple=[240000,240000]
)golden");
}

}  // namespace
}  // namespace matopt
