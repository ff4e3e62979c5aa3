#include <gtest/gtest.h>

#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "frontend/parser.h"
#include "frontend/sql_gen.h"
#include "la/kernels.h"
#include "ml/generators.h"

namespace matopt {
namespace {

TEST(Parser, ParsesInputsWithFormatsAndSparsity) {
  auto program = ParseProgram(R"(
    input A[1000, 2000] format = row_strips(100) sparsity = 0.05;
    input B[2000, 300] format = tiles(100);
    input C[300, 300];
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ComputeGraph& g = program.value().graph;
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.vertex(0).type, MatrixType(1000, 2000));
  EXPECT_EQ(BuiltinFormats()[g.vertex(0).input_format],
            (Format{Layout::kRowStrips, 100, 0}));
  EXPECT_DOUBLE_EQ(g.vertex(0).sparsity, 0.05);
  EXPECT_EQ(BuiltinFormats()[g.vertex(1).input_format],
            (Format{Layout::kTiles, 100, 100}));
  // Default: single tuple for small matrices.
  EXPECT_EQ(BuiltinFormats()[g.vertex(2).input_format].layout,
            Layout::kSingleTuple);
}

TEST(Parser, ParsesExpressionsWithPrecedence) {
  auto program = ParseProgram(R"(
    input A[100, 200];
    input B[200, 50];
    input C[100, 50];
    O = A * B + C .* C;   # matmul binds tighter than +
    output O;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ComputeGraph& g = program.value().graph;
  int o = program.value().names.at("O");
  EXPECT_EQ(g.vertex(o).op, OpKind::kAdd);
  EXPECT_EQ(g.vertex(g.vertex(o).inputs[0]).op, OpKind::kMatMul);
  EXPECT_EQ(g.vertex(g.vertex(o).inputs[1]).op, OpKind::kHadamard);
  EXPECT_EQ(program.value().outputs, std::vector<int>{o});
}

TEST(Parser, TransposeScalarAndFunctions) {
  auto program = ParseProgram(R"(
    input W[40, 60];
    input D[30, 60];
    G = 0.5 * (D * W')';
    R = relu(G);
    S = rowsum(sigmoid(G) ./ exp(R));
    output S;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ComputeGraph& g = program.value().graph;
  int gv = program.value().names.at("G");
  EXPECT_EQ(g.vertex(gv).op, OpKind::kScalarMul);
  EXPECT_DOUBLE_EQ(g.vertex(gv).scalar, 0.5);
  EXPECT_EQ(g.vertex(gv).type, MatrixType(40, 30));  // (D*W')' is 40x30
  int s = program.value().names.at("S");
  EXPECT_EQ(g.vertex(s).type, MatrixType(40, 1));
}

TEST(Parser, BroadcastRowAddAndReluGrad) {
  auto program = ParseProgram(R"(
    input X[100, 30];
    input b[1, 30];
    input U[100, 30];
    Z = X .+ b;
    G = relu_grad(Z, U);
    output G;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ComputeGraph& g = program.value().graph;
  EXPECT_EQ(g.vertex(program.value().names.at("Z")).op,
            OpKind::kBroadcastRowAdd);
  EXPECT_EQ(g.vertex(program.value().names.at("G")).op, OpKind::kReluGrad);
}

TEST(Parser, ErrorsCarryPositions) {
  auto p1 = ParseProgram("input A[100, 200;\n");
  ASSERT_FALSE(p1.ok());
  EXPECT_NE(p1.status().message().find("line 1"), std::string::npos);

  auto p2 = ParseProgram("input A[10, 20];\nO = A * Bogus;\n");
  ASSERT_FALSE(p2.ok());
  EXPECT_NE(p2.status().message().find("unknown matrix 'Bogus'"),
            std::string::npos);

  auto p3 = ParseProgram("input A[10, 20];\nO = A * A;\n");
  ASSERT_FALSE(p3.ok());  // 10x20 * 10x20: type error surfaces

  auto p4 = ParseProgram("input A[10, 20] format = pyramid;\n");
  ASSERT_FALSE(p4.ok());
  EXPECT_NE(p4.status().message().find("unknown format"), std::string::npos);

  auto p5 = ParseProgram("input A[10, 20];\ninput A[10, 20];\n");
  ASSERT_FALSE(p5.ok());
  EXPECT_NE(p5.status().message().find("already defined"), std::string::npos);
}

TEST(Parser, RejectsUnknownFunctionAndBadArity) {
  EXPECT_FALSE(ParseProgram("input A[5,5];\nO = frobnicate(A);\n").ok());
  EXPECT_FALSE(ParseProgram("input A[5,5];\nO = relu(A, A);\n").ok());
  EXPECT_FALSE(ParseProgram("input A[5,5];\nO = relu_grad(A);\n").ok());
}

TEST(Parser, ParsedProgramOptimizesAndExecutes) {
  auto program = ParseProgram(R"(
    input A[230, 340] format = row_strips(100);
    input B[340, 180] format = col_strips(100);
    input C[180, 270] format = tiles(100);
    O = relu(A * B) * C;
    output O;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  CostModel model = CostModel::Analytic(cluster);
  auto plan = Optimize(program.value().graph, catalog, model, cluster);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  DenseMatrix a = GaussianMatrix(230, 340, 201);
  DenseMatrix b = GaussianMatrix(340, 180, 202);
  DenseMatrix c = GaussianMatrix(180, 270, 203);
  std::unordered_map<int, Relation> rels;
  rels[0] = MakeRelation(a, program.value().graph.vertex(0).input_format,
                         cluster)
                .value();
  rels[1] = MakeRelation(b, program.value().graph.vertex(1).input_format,
                         cluster)
                .value();
  rels[2] = MakeRelation(c, program.value().graph.vertex(2).input_format,
                         cluster)
                .value();
  PlanExecutor executor(catalog, cluster);
  auto run = executor.Execute(program.value().graph, plan.value().annotation,
                              std::move(rels));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  DenseMatrix out =
      MaterializeDense(run.value().sinks.begin()->second).value();
  EXPECT_TRUE(AllClose(out, Gemm(Relu(Gemm(a, b)), c), 1e-8, 1e-8));
}

TEST(SqlGen, EmitsPaperStyleViews) {
  auto program = ParseProgram(R"(
    input A[5000, 30000] format = row_strips(1000);
    input B[30000, 700] format = col_strips(100);
    AB = A * B;
    output AB;
  )");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(10);
  CostModel model = CostModel::Analytic(cluster);
  auto plan = Optimize(program.value().graph, catalog, model, cluster);
  ASSERT_TRUE(plan.ok());
  std::string sql = GenerateSql(program.value().graph,
                                plan.value().annotation, catalog);
  EXPECT_NE(sql.find("CREATE TABLE"), std::string::npos);
  EXPECT_NE(sql.find("CREATE VIEW AB"), std::string::npos);
  EXPECT_NE(sql.find("matrix_multiply"), std::string::npos);
  EXPECT_NE(sql.find("MATRIX["), std::string::npos);
}

TEST(SqlGen, TileShuffleEmitsGroupBySum) {
  // Force the all-tile plan so the emitted SQL matches the paper's
  // chunked multiply with SUM + GROUP BY.
  auto program = ParseProgram(R"(
    input A[3000, 3000] format = tiles(1000);
    input B[3000, 3000] format = tiles(1000);
    O = A * B;
  )");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(10);
  Annotation annotation;
  annotation.vertices.resize(3);
  annotation.at(0).output_format = program.value().graph.vertex(0).input_format;
  annotation.at(1).output_format = program.value().graph.vertex(1).input_format;
  annotation.at(2).impl = ImplKind::kMmTilesShuffle;
  annotation.at(2).output_format = catalog.FindFormat({Layout::kTiles, 1000, 1000});
  annotation.at(2).input_edges = {
      {annotation.at(0).output_format, std::nullopt,
       annotation.at(0).output_format},
      {annotation.at(1).output_format, std::nullopt,
       annotation.at(1).output_format}};
  ASSERT_TRUE(ValidateAnnotation(program.value().graph, annotation, catalog,
                                 cluster)
                  .ok());
  std::string sql =
      GenerateSql(program.value().graph, annotation, catalog);
  EXPECT_NE(sql.find("SUM(matrix_multiply"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY x.tileRow, m.tileCol"), std::string::npos);
  EXPECT_NE(sql.find("WHERE x.tileCol = m.tileRow"), std::string::npos);
}

TEST(SqlGen, TransformsEmitChunkingViews) {
  auto program = ParseProgram(R"(
    input A[2000, 30000] format = row_strips(1000);
    input B[30000, 2000] format = tiles(1000);
    O = A * B;
  )");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(10);
  CostModel model = CostModel::Analytic(cluster);
  auto plan = Optimize(program.value().graph, catalog, model, cluster);
  ASSERT_TRUE(plan.ok());
  std::string sql = GenerateSql(program.value().graph,
                                plan.value().annotation, catalog);
  // Whatever plan is chosen, the SQL must be non-trivial and mention the
  // physical layouts involved.
  EXPECT_NE(sql.find("CREATE VIEW O"), std::string::npos);
}

TEST(SqlGen, EveryImplEmitsAViewBody) {
  Catalog catalog;
  FormatId single = catalog.FindFormat({Layout::kSingleTuple, 0, 0});
  std::vector<ImplKind> impls = Catalog::AllImpls();
  for (ImplKind kind : Catalog::GpuImpls()) impls.push_back(kind);
  for (ImplKind kind : impls) {
    SCOPED_TRACE(ImplKindName(kind));
    OpKind op = ImplOp(kind);
    ComputeGraph g;
    std::vector<int> args;
    for (int j = 0; j < OpArity(op); ++j) {
      MatrixType type = op == OpKind::kBroadcastRowAdd && j == 1
                            ? MatrixType(1, 4)
                            : MatrixType(4, 4);
      args.push_back(g.AddInput(type, single, "A" + std::to_string(j)));
    }
    auto out = g.AddOp(op, args, "O");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Annotation ann;
    ann.vertices.resize(g.num_vertices());
    for (int a : args) {
      ann.at(a).output_format = single;
      ann.at(out.value()).input_edges.push_back({single, std::nullopt, single});
    }
    ann.at(out.value()).impl = kind;
    ann.at(out.value()).output_format = single;
    std::string sql = GenerateSql(g, ann, catalog);
    size_t view = sql.find("CREATE VIEW O AS\n");
    ASSERT_NE(view, std::string::npos) << sql;
    size_t select = sql.find("  SELECT ", view);
    EXPECT_NE(select, std::string::npos) << sql;
    EXPECT_NE(sql.find(';', select), std::string::npos) << sql;
    EXPECT_EQ(ImplClassOf(kind) == ImplClass::kGpu,
              sql.find("-- GPU") != std::string::npos)
        << sql;
  }
}

}  // namespace
}  // namespace matopt
