// Per-implementation coverage of the tuple-compute table: every CPU
// implementation kind runs on the smallest graph that reaches it — one op
// vertex over input formats the kind accepts — single-node, sharded, and
// dry. Sinks must be bit-identical between the single-node and the
// 3-worker sharded engine, match the reference interpreter, and the
// single-node simulated accounting must equal the dry run's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/opt/annotation.h"
#include "engine/executor.h"
#include "fuzz/reference.h"
#include "ml/generators.h"

namespace matopt {
namespace {

bool BitEq(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

/// Kinds no input format combination reaches on these shapes. Empty: the
/// test fails if a kind silently loses coverage.
const std::vector<ImplKind> kUnreachable = {};

/// Operand shapes per atomic computation: small, but large enough that
/// the 100-wide strip and tile formats split them into several chunks.
std::vector<MatrixType> OperandShapes(OpKind op) {
  switch (op) {
    case OpKind::kMatMul:
      return {MatrixType(250, 230), MatrixType(230, 210)};
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kHadamard:
    case OpKind::kElemDiv:
    case OpKind::kReluGrad:
      return {MatrixType(250, 230), MatrixType(250, 230)};
    case OpKind::kBroadcastRowAdd:
      return {MatrixType(250, 230), MatrixType(1, 230)};
    case OpKind::kInverse:
      return {MatrixType(230, 230)};
    default:
      return {MatrixType(250, 230)};
  }
}

bool IsSparse(FormatId f) { return BuiltinFormats()[f].sparse(); }

/// Operand values: Gaussian, with ~10% non-zeros under sparse formats and
/// a dominant diagonal for the inverse.
DenseMatrix OperandData(const MatrixType& type, FormatId format, OpKind op,
                        uint64_t seed) {
  DenseMatrix m = IsSparse(format)
                      ? RandomSparse(type.rows(), type.cols(),
                                     0.1 * static_cast<double>(type.cols()),
                                     seed)
                            .ToDense()
                      : GaussianMatrix(type.rows(), type.cols(), seed);
  if (op == OpKind::kInverse) {
    for (int64_t i = 0; i < m.rows(); ++i) {
      m(i, i) += 4.0 * static_cast<double>(m.rows());
    }
  }
  if (op == OpKind::kElemDiv && seed % 2 == 0) {
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += 8.0;  // divisor
  }
  return m;
}

struct Case {
  ComputeGraph graph;
  Annotation annotation;
  std::unordered_map<int, Relation> relations;
  std::map<int, DenseMatrix> matrices;
};

/// The accepted input-format combination with the most input tuples (ties
/// go to the lowest format ids), or nullopt when none is accepted.
std::optional<std::vector<FormatId>> PickFormats(
    const Catalog& catalog, ImplKind kind,
    const std::vector<MatrixType>& shapes, const ClusterConfig& cluster) {
  const int n = static_cast<int>(BuiltinFormats().size());
  std::optional<std::vector<FormatId>> best;
  size_t best_tuples = 0;
  std::vector<FormatId> formats(shapes.size(), 0);
  const int combos = shapes.size() == 1 ? n : n * n;
  for (int combo = 0; combo < combos; ++combo) {
    formats[0] = static_cast<FormatId>(combo % n);
    if (shapes.size() > 1) formats[1] = static_cast<FormatId>(combo / n);
    std::vector<ArgInfo> args;
    size_t tuples = 0;
    for (size_t j = 0; j < shapes.size(); ++j) {
      const double sparsity = IsSparse(formats[j]) ? 0.1 : 1.0;
      args.push_back({shapes[j], formats[j], sparsity});
      tuples += MakeDryRelation(shapes[j], formats[j], 1.0, cluster)
                    .tuples.size();
    }
    if (!catalog.ImplOutputFormat(kind, args, cluster).has_value()) continue;
    if (!best.has_value() || tuples > best_tuples) {
      best = formats;
      best_tuples = tuples;
    }
  }
  return best;
}

/// One op vertex running `kind` over inputs in `formats` (the picked
/// combination when null).
Result<Case> BuildCase(const Catalog& catalog, ImplKind kind,
                       const ClusterConfig& cluster,
                       std::optional<std::vector<FormatId>> formats = {}) {
  const OpKind op = ImplOp(kind);
  const std::vector<MatrixType> shapes = OperandShapes(op);
  if (!formats.has_value()) {
    formats = PickFormats(catalog, kind, shapes, cluster);
  }
  if (!formats.has_value()) {
    return Status::NotFound("no input formats reach the kind");
  }
  Case c;
  GraphBuilder builder;
  std::vector<int> inputs;
  std::vector<ArgInfo> args;
  for (size_t j = 0; j < shapes.size(); ++j) {
    const FormatId f = (*formats)[j];
    DenseMatrix m = OperandData(shapes[j], f, op, 11 + j);
    // Declare the measured density so the dry run sees the data's shape.
    double sparsity = 1.0;
    if (IsSparse(f)) sparsity = SparseMatrix::FromDense(m).Sparsity();
    const int v =
        builder.Input(shapes[j], f, "in" + std::to_string(j), sparsity);
    inputs.push_back(v);
    args.push_back({shapes[j], f, sparsity});
    MATOPT_ASSIGN_OR_RETURN(Relation rel, MakeRelation(m, f, cluster));
    c.relations.emplace(v, std::move(rel));
    c.matrices.emplace(v, std::move(m));
  }
  builder.Op(op, inputs, "out", /*scalar=*/-1.5);
  MATOPT_ASSIGN_OR_RETURN(c.graph, builder.Finish());
  c.annotation.vertices.resize(c.graph.num_vertices());
  for (size_t j = 0; j < inputs.size(); ++j) {
    c.annotation.at(inputs[j]).output_format = (*formats)[j];
  }
  VertexAnnotation& va = c.annotation.at(c.graph.num_vertices() - 1);
  va.impl = kind;
  va.output_format = *catalog.ImplOutputFormat(kind, args, cluster);
  for (FormatId f : *formats) va.input_edges.push_back({f, std::nullopt, f});
  return c;
}

Result<std::map<int, DenseMatrix>> Sinks(const ExecResult& result) {
  std::map<int, DenseMatrix> sinks;
  for (const auto& [v, rel] : result.sinks) {
    MATOPT_ASSIGN_OR_RETURN(DenseMatrix m, MaterializeDense(rel));
    sinks.emplace(v, std::move(m));
  }
  return sinks;
}

/// Runs `c` single-node, on 3 shards and dry, and checks the three agree
/// with each other and with the reference interpreter.
void ExpectEnginesAgree(const Case& c, const Catalog& catalog,
                        const ClusterConfig& cluster) {
  ASSERT_TRUE(
      ValidateAnnotation(c.graph, c.annotation, catalog, cluster).ok());

  PlanExecutor local(catalog, cluster);
  local.set_dist_workers(0);
  auto local_run = local.Execute(c.graph, c.annotation, c.relations);
  ASSERT_TRUE(local_run.ok()) << local_run.status().ToString();
  PlanExecutor sharded(catalog, cluster);
  sharded.set_dist_workers(3);
  auto sharded_run = sharded.Execute(c.graph, c.annotation, c.relations);
  ASSERT_TRUE(sharded_run.ok()) << sharded_run.status().ToString();
  auto dry = local.DryRun(c.graph, c.annotation);
  ASSERT_TRUE(dry.ok()) << dry.status().ToString();

  auto local_sinks = Sinks(local_run.value());
  auto sharded_sinks = Sinks(sharded_run.value());
  ASSERT_TRUE(local_sinks.ok() && sharded_sinks.ok());
  auto reference = fuzz::EvaluateReference(c.graph, c.matrices);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(local_sinks.value().size(), 1u);
  for (const auto& [v, expected] : reference.value()) {
    const DenseMatrix& l = local_sinks.value().at(v);
    EXPECT_TRUE(BitEq(l, sharded_sinks.value().at(v)));
    EXPECT_TRUE(AllClose(l, expected, 1e-6, 1e-6));
    EXPECT_TRUE(AllClose(sharded_sinks.value().at(v), expected, 1e-6, 1e-6));
  }

  const ExecStats& s = local_run.value().stats;
  const ExecStats& d = dry.value().stats;
  EXPECT_EQ(s.sim_seconds, d.sim_seconds);
  EXPECT_EQ(s.flops, d.flops);
  EXPECT_EQ(s.net_bytes, d.net_bytes);
  EXPECT_EQ(s.tuples, d.tuples);
  EXPECT_EQ(s.peak_worker_mem_bytes, d.peak_worker_mem_bytes);
  // peak_worker_spill_bytes is left out: it holds the output relation,
  // whose sparse tuples carry measured densities in data mode.
}

class ImplCoverageTest : public ::testing::TestWithParam<ImplKind> {
 protected:
  Catalog catalog_;
  ClusterConfig cluster_ = [] {
    ClusterConfig c = SimSqlProfile(4);
    c.broadcast_cap_bytes = 1e12;
    return c;
  }();
};

TEST_P(ImplCoverageTest, LocalShardedDryAndReferenceAgree) {
  const ImplKind kind = GetParam();
  auto built = BuildCase(catalog_, kind, cluster_);
  if (std::find(kUnreachable.begin(), kUnreachable.end(), kind) !=
      kUnreachable.end()) {
    EXPECT_FALSE(built.ok()) << "listed as unreachable but reached";
    return;
  }
  ASSERT_TRUE(built.ok()) << ImplKindName(kind) << ": "
                          << built.status().ToString();
  ExpectEnginesAgree(built.value(), catalog_, cluster_);
}

// The picked formats favour dense layouts (more tuples), so the sparse
// branch of the map kinds gets its own case.
TEST_F(ImplCoverageTest, SparseScalarMulMap) {
  auto built = BuildCase(catalog_, ImplKind::kScalarMulMap, cluster_,
                         std::vector<FormatId>{18});
  ASSERT_TRUE(BuiltinFormats()[18].sparse());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectEnginesAgree(built.value(), catalog_, cluster_);
}

INSTANTIATE_TEST_SUITE_P(AllImpls, ImplCoverageTest,
                         ::testing::ValuesIn(Catalog::AllImpls()),
                         [](const ::testing::TestParamInfo<ImplKind>& info) {
                           std::string name = ImplKindName(info.param);
                           for (char& ch : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace matopt
