// Plan identity of the rewrite-aware search (DESIGN.md §8, §16).
//
// Golden: the six examples/programs and the three perfbench/programs,
// planned with SimSqlProfile(10) and the service's default options, pick
// exactly the plans recorded here (fused cost, cost, states explored,
// rewrite chain and a digest of the full annotation). The search's
// vertex-local memo and the single-pass frontier expansion must leave
// every one of these bit for bit unchanged.
//
// Memo: OptimizeWithRewrites, which shares one memo across its candidate
// searches, returns field for field the plan obtained by planning every
// EnumerateRewrites candidate with a plain Optimize and keeping the first
// strictly cheaper one in candidate order; and vertices that differ only
// in their arguments' sparsity do not share memo entries.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cost/cost_model.h"
#include "core/fusion/fusion.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/cluster.h"
#include "frontend/frontend_lint.h"
#include "ml/workloads.h"
#include "serve/service.h"

namespace matopt {
namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  return (h ^ x) * 0x100000001B3ull;  // FNV-1a step over 64-bit words
}

/// Digest of every plan choice: each vertex's implementation, output
/// format and input edges (pin, transformation, pout), then the fused
/// groups.
uint64_t AnnotationDigest(const Annotation& annotation) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const VertexAnnotation& va : annotation.vertices) {
    h = Mix(h, static_cast<uint64_t>(va.impl));
    h = Mix(h, static_cast<uint64_t>(va.output_format));
    h = Mix(h, va.input_edges.size());
    for (const EdgeAnnotation& e : va.input_edges) {
      h = Mix(h, static_cast<uint64_t>(e.pin));
      h = Mix(h, e.transform.has_value()
                     ? static_cast<uint64_t>(*e.transform) + 1
                     : 0);
      h = Mix(h, static_cast<uint64_t>(e.pout));
    }
  }
  for (const FusedGroup& group : annotation.fusion.groups) {
    h = Mix(h, static_cast<uint64_t>(group.base));
    for (int m : group.members) h = Mix(h, static_cast<uint64_t>(m));
  }
  return h;
}

std::string ReadProgram(const std::string& relative) {
  std::ifstream file(std::string(MATOPT_SOURCE_DIR) + "/" + relative);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

struct Golden {
  const char* path;
  double fused_cost;
  double cost;
  int64_t states_explored;
  const char* chain;
  uint64_t digest;
};

// Recorded from the search before the memo and the single-pass expansion.
const Golden kGolden[] = {
    {"examples/programs/ffnn_step.mla", 481.44403203333331,
     507.07805444166667, 275633, "", 0xacd25748f40d8339ull},
    {"examples/programs/matmul_chain.mla", 417.53722485833327,
     417.53722485833327, 258017,
     "matmul_assoc at v9: A*(B*C) => (A*B)*C ; matmul_assoc at v12: "
     "(A*B)*C => A*(B*C)",
     0x0cf9a25e270ca876ull},
    {"examples/programs/serve_chain_small.mla", 14.073779166666666,
     14.073779166666666, 238746, "matmul_assoc at v12: (A*B)*C => A*(B*C)",
     0xff9404d53d99318dull},
    {"examples/programs/serve_ffnn_small.mla", 30.063840455893335,
     46.076267042026664, 290552, "", 0x8c3f4b2b4210f85dull},
    {"examples/programs/serve_inverse_small.mla", 18.012741990400002,
     24.0145262592, 209955, "matmul_assoc at v7: (A*B)*C => A*(B*C)",
     0x23f2f3f025bbf8c7ull},
    {"examples/programs/sparse_logreg.mla", 144.09247479642201,
     151.336173646422, 54750, "", 0x04cd014aa2100402ull},
    {"perfbench/programs/epilogue_2048.mla", 2.0236689186133319,
     14.104631471786668, 234, "", 0x358e84df457e98f7ull},
    {"perfbench/programs/ffnn_1024.mla", 28.355800212480005,
     46.450708633706668, 290554, "", 0x13326512a2f5e5e6ull},
    {"perfbench/programs/inverse_512.mla", 18.208137164799997,
     24.224685465599997, 209955, "matmul_assoc at v7: (A*B)*C => A*(B*C)",
     0x23f2f3f025bbf8c7ull},
};

class PlanIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OverrideRewriteEnabled(true);
    OverrideFusionEnabled(true);
  }
  void TearDown() override {
    ClearRewriteOverride();
    ClearFusionOverride();
  }

  ComputeGraph ParseSource(const std::string& source) {
    auto program = ParseProgramChecked(source, catalog_, cluster_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return program.ok() ? program.value().graph : ComputeGraph{};
  }

  ComputeGraph Parse(const char* path) {
    SCOPED_TRACE(path);
    return ParseSource(ReadProgram(path));
  }

  Catalog catalog_;
  ClusterConfig cluster_ = SimSqlProfile(10);
  CostModel model_ = CostModel::Analytic(cluster_);
  serve::ServeOptions serve_options_;
};

TEST_F(PlanIdentityTest, ProgramsPickTheRecordedPlans) {
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.path);
    ComputeGraph graph = Parse(golden.path);
    auto plan = OptimizeWithRewrites(graph, catalog_, model_, cluster_,
                                     serve_options_.optimizer,
                                     serve_options_.rewrite);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const RewrittenPlan& rp = plan.value();
    EXPECT_EQ(rp.plan.fused_cost, golden.fused_cost);
    EXPECT_EQ(rp.plan.cost, golden.cost);
    EXPECT_EQ(rp.plan.states_explored, golden.states_explored);
    EXPECT_EQ(rp.ChainString(), golden.chain);
    EXPECT_EQ(AnnotationDigest(rp.plan.annotation), golden.digest);
    EXPECT_FALSE(rp.plan.beam_pruned);
    EXPECT_EQ(rp.plan.beam_pruned_vertices, 0);
    EXPECT_GE(rp.search_seconds, rp.plan.opt_seconds);
  }
}

TEST_F(PlanIdentityTest, BeamCappedFfnnPicksTheRecordedPlans) {
  // The beam cap keeps the cheapest entries and, at the cutoff cost, the
  // lowest ranks; the recorded plans pin that tie-break down too.
  struct Capped {
    int64_t max_table_entries;
    int64_t states_explored;
    uint64_t digest;
  };
  auto graph = BuildFfnnGraph(FfnnConfig{});
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  for (const Capped& capped : {Capped{20000, 196567, 0x1b0a36d1f29df863ull},
                               Capped{300, 157683, 0x9e6d7542268bf0bbull}}) {
    SCOPED_TRACE(capped.max_table_entries);
    OptimizerOptions options;
    options.max_table_entries = capped.max_table_entries;
    auto plan = FrontierOptimize(graph.value(), catalog_, model_, cluster_,
                                 options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan.value().cost, 1297.9642703583336);
    EXPECT_EQ(plan.value().fused_cost, 1246.6419228416669);
    EXPECT_EQ(plan.value().states_explored, capped.states_explored);
    EXPECT_EQ(AnnotationDigest(plan.value().annotation), capped.digest);
    EXPECT_TRUE(plan.value().beam_pruned);
    EXPECT_GT(plan.value().beam_pruned_vertices, 0);
  }
}

TEST_F(PlanIdentityTest, MemoKeysTellSparsitiesApart) {
  // One op over arguments of one shape but different sparsities: were
  // the memo keyed without the sparsity bits, B would reuse A's deltas
  // and transformation tables and the DP would miss the optimum that
  // exhaustive search finds.
  ComputeGraph graph = ParseSource(
      "input X[4000, 4000] format = single;\n"
      "input Y[4000, 4000] format = sp_csr sparsity = 0.001000;\n"
      "A = X * X;\nB = Y * Y;\noutput A;\noutput B;\n");
  auto dp = FrontierOptimize(graph, catalog_, model_, cluster_);
  auto brute = BruteForceOptimize(graph, catalog_, model_, cluster_);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_NEAR(dp.value().cost, brute.value().cost,
              1e-9 * brute.value().cost);
}

TEST_F(PlanIdentityTest, SharedMemoMatchesPlanningEachCandidateAlone) {
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.path);
    ComputeGraph graph = Parse(golden.path);
    auto memoized = OptimizeWithRewrites(graph, catalog_, model_, cluster_,
                                         serve_options_.optimizer,
                                         serve_options_.rewrite);
    ASSERT_TRUE(memoized.ok()) << memoized.status().ToString();

    RewriteSearchResult search =
        EnumerateRewrites(graph, serve_options_.rewrite);
    size_t winner = 0;
    auto best = Optimize(search.candidates[0].graph, catalog_, model_,
                         cluster_, serve_options_.optimizer);
    ASSERT_TRUE(best.ok()) << best.status().ToString();
    const double baseline = best.value().fused_cost;
    for (size_t i = 1; i < search.candidates.size(); ++i) {
      auto r = Optimize(search.candidates[i].graph, catalog_, model_,
                        cluster_, serve_options_.optimizer);
      if (r.ok() && r.value().fused_cost < best.value().fused_cost) {
        best = std::move(r);
        winner = i;
      }
    }

    const RewrittenPlan& rp = memoized.value();
    const PlanResult& alone = best.value();
    const RewriteCandidate& cand = search.candidates[winner];
    EXPECT_EQ(rp.plan.fused_cost, alone.fused_cost);
    EXPECT_EQ(rp.plan.cost, alone.cost);
    EXPECT_EQ(rp.plan.states_explored, alone.states_explored);
    EXPECT_EQ(rp.plan.beam_pruned, alone.beam_pruned);
    EXPECT_EQ(rp.plan.beam_pruned_vertices, alone.beam_pruned_vertices);
    EXPECT_EQ(AnnotationDigest(rp.plan.annotation),
              AnnotationDigest(alone.annotation));
    EXPECT_EQ(rp.graph.ToString(), cand.graph.ToString());
    EXPECT_EQ(rp.rewritten, winner != 0);
    EXPECT_EQ(rp.vertex_map, cand.vertex_map);
    EXPECT_EQ(rp.exact, cand.exact);
    EXPECT_EQ(rp.chain.size(), cand.chain.size());
    EXPECT_EQ(rp.candidates_considered,
              static_cast<int>(search.candidates.size()));
    EXPECT_EQ(rp.budget_hit, search.budget_hit);
    EXPECT_EQ(rp.baseline_cost, baseline);
  }
}

}  // namespace
}  // namespace matopt
