// Tests for the logical rewriter (DESIGN.md §16): the MATOPT_REWRITE
// knob, canonical graph fingerprints, per-rule soundness against the
// reference interpreter (exact rules bit-identical, reassociating rules
// within tolerance), saturation / idempotence / dedup properties of the
// bounded rule closure, and the cost-never-worse contract of
// OptimizeWithRewrites on the paper's chain, block-inverse, and FFNN
// workloads — including the golden provenance the explain path prints.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/exec_stats.h"
#include "fuzz/reference.h"
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

FormatId Single() { return Find({Layout::kSingleTuple, 0, 0}); }

/// Restores the process-wide rewrite knob no matter how a test exits.
struct KnobGuard {
  ~KnobGuard() { ClearRewriteOverride(); }
};

class RewriteTest : public ::testing::Test {
 protected:
  Catalog catalog_;
  ClusterConfig cluster_ = SimSqlProfile(4);
  CostModel model_ = CostModel::Analytic(SimSqlProfile(4));

  /// Dense Gaussian values for every input vertex of `graph`.
  std::map<int, DenseMatrix> InputsFor(const ComputeGraph& graph) {
    std::map<int, DenseMatrix> inputs;
    for (int v = 0; v < graph.num_vertices(); ++v) {
      const Vertex& vx = graph.vertex(v);
      if (vx.op != OpKind::kInput) continue;
      inputs.emplace(v, GaussianMatrix(vx.type.rows(), vx.type.cols(),
                                       1000 + static_cast<uint64_t>(v)));
    }
    return inputs;
  }

  /// Evaluates every candidate of the closure over `graph` against the
  /// original's reference values: every original sink must map to a
  /// candidate vertex with the same value — bit for bit when the chain is
  /// exact, within reassociation tolerance otherwise. Returns the set of
  /// rules observed as the first step of any candidate chain.
  std::set<RewriteRule> CheckClosureSemantics(const ComputeGraph& graph,
                                              const RewriteOptions& options) {
    std::map<int, DenseMatrix> inputs = InputsFor(graph);
    auto original = fuzz::EvaluateReference(graph, inputs);
    EXPECT_TRUE(original.ok()) << original.status().ToString();
    if (!original.ok()) return {};

    RewriteSearchResult closure = EnumerateRewrites(graph, options);
    EXPECT_FALSE(closure.candidates.empty());
    std::set<RewriteRule> seen;
    for (const RewriteCandidate& cand : closure.candidates) {
      if (!cand.chain.empty()) seen.insert(cand.chain.front().rule);
      std::map<int, DenseMatrix> mapped_inputs;
      bool inputs_ok = true;
      for (const auto& [v, m] : inputs) {
        const bool mapped = v < static_cast<int>(cand.vertex_map.size()) &&
                            cand.vertex_map[v] >= 0;
        EXPECT_TRUE(mapped) << "input v" << v << " dropped";
        if (!mapped) {
          inputs_ok = false;
          break;
        }
        mapped_inputs.emplace(cand.vertex_map[v], m);
      }
      if (!inputs_ok) continue;
      auto rewritten = fuzz::EvaluateReference(cand.graph, mapped_inputs);
      EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
      if (!rewritten.ok()) continue;
      for (const auto& [s, expected] : original.value()) {
        const int ms = s < static_cast<int>(cand.vertex_map.size())
                           ? cand.vertex_map[s]
                           : -1;
        EXPECT_GE(ms, 0) << "sink v" << s << " dropped";
        if (ms < 0) continue;
        auto it = rewritten.value().find(ms);
        EXPECT_NE(it, rewritten.value().end())
            << "sink v" << s << " not a sink of the candidate";
        if (it == rewritten.value().end()) continue;
        if (cand.exact) {
          EXPECT_TRUE(it->second == expected)
              << "exact chain changed bits at sink v" << s;
        } else {
          EXPECT_TRUE(AllClose(it->second, expected, 1e-9, 1e-12))
              << "reassociating chain diverged at sink v" << s;
        }
      }
    }
    return seen;
  }
};

// ---------------------------------------------------------------------------
// Knob.

TEST_F(RewriteTest, KnobOverridesAndClears) {
  KnobGuard guard;
  EXPECT_TRUE(RewriteCompiled());
  OverrideRewriteEnabled(false);
  EXPECT_FALSE(RewriteEnabled());
  OverrideRewriteEnabled(true);
  EXPECT_TRUE(RewriteEnabled());
  ClearRewriteOverride();
}

// ---------------------------------------------------------------------------
// Canonical fingerprints.

TEST_F(RewriteTest, FingerprintInvariantUnderVertexNumbering) {
  // Same expression, inputs declared in opposite orders (so every vertex
  // id differs): the canonical fingerprint must agree.
  ComputeGraph g1;
  int a1 = g1.AddInput(MatrixType(40, 30), Single(), "A");
  int b1 = g1.AddInput(MatrixType(30, 20), Single(), "B");
  g1.AddOp(OpKind::kMatMul, {a1, b1}).value();

  ComputeGraph g2;
  int b2 = g2.AddInput(MatrixType(30, 20), Single(), "B");
  int a2 = g2.AddInput(MatrixType(40, 30), Single(), "A");
  g2.AddOp(OpKind::kMatMul, {a2, b2}).value();

  EXPECT_EQ(GraphFingerprint(g1), GraphFingerprint(g2));

  // A structurally different program must not collide.
  ComputeGraph g3;
  int a3 = g3.AddInput(MatrixType(40, 30), Single(), "A");
  int b3 = g3.AddInput(MatrixType(30, 20), Single(), "B");
  int mm = g3.AddOp(OpKind::kMatMul, {a3, b3}).value();
  g3.AddOp(OpKind::kRelu, {mm}).value();
  EXPECT_NE(GraphFingerprint(g1), GraphFingerprint(g3));
}

// ---------------------------------------------------------------------------
// Per-rule soundness on the reference interpreter.

TEST_F(RewriteTest, TransposeRulesAreExact) {
  ComputeGraph g;
  int a = g.AddInput(MatrixType(7, 5), Single(), "A");
  int t1 = g.AddOp(OpKind::kTranspose, {a}).value();
  int t2 = g.AddOp(OpKind::kTranspose, {t1}).value();
  int t3 = g.AddOp(OpKind::kTranspose, {t2}).value();
  g.AddOp(OpKind::kTranspose, {t3}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_TRUE(rules.count(RewriteRule::kTransposeElim));
}

TEST_F(RewriteTest, TransposePushDownOverMatMulAndElemwise) {
  ComputeGraph g;
  int a = g.AddInput(MatrixType(6, 4), Single(), "A");
  int b = g.AddInput(MatrixType(4, 9), Single(), "B");
  int c = g.AddInput(MatrixType(6, 9), Single(), "C");
  int mm = g.AddOp(OpKind::kMatMul, {a, b}).value();
  int add = g.AddOp(OpKind::kAdd, {mm, c}).value();
  g.AddOp(OpKind::kTranspose, {add}).value();
  int r = g.AddOp(OpKind::kRelu, {add}).value();
  g.AddOp(OpKind::kTranspose, {r}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_TRUE(rules.count(RewriteRule::kTransposePushElemwise));
}

TEST_F(RewriteTest, MatMulAssociativityWithinTolerance) {
  ComputeGraph g;
  int a = g.AddInput(MatrixType(8, 6), Single(), "A");
  int b = g.AddInput(MatrixType(6, 5), Single(), "B");
  int c = g.AddInput(MatrixType(5, 7), Single(), "C");
  int ab = g.AddOp(OpKind::kMatMul, {a, b}).value();
  g.AddOp(OpKind::kMatMul, {ab, c}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_TRUE(rules.count(RewriteRule::kMatMulAssoc));

  // With reassociation disabled only exact rules may fire, and an
  // association-only graph admits no rewrite at all.
  options.allow_reassociation = false;
  RewriteSearchResult closure = EnumerateRewrites(g, options);
  EXPECT_EQ(closure.candidates.size(), 1u);
}

TEST_F(RewriteTest, DistributeRequiresSparseAddends) {
  auto build = [&](double sparsity) {
    ComputeGraph g;
    int a = g.AddInput(MatrixType(9, 6), Single(), "A");
    int b = g.AddInput(MatrixType(6, 8), Single(), "B", sparsity);
    int c = g.AddInput(MatrixType(6, 8), Single(), "C", sparsity);
    int sum = g.AddOp(OpKind::kAdd, {b, c}).value();
    g.AddOp(OpKind::kMatMul, {a, sum}).value();
    return g;
  };

  // Sparse addends: the distribution is a plausible win, so the rule
  // fires and is value-preserving within the reassociation tolerance.
  RewriteOptions options;
  std::set<RewriteRule> sparse_rules =
      CheckClosureSemantics(build(0.05), options);
  EXPECT_TRUE(sparse_rules.count(RewriteRule::kDistribute));

  // Provably dense addends (sparsity endpoint 1.0): distributing doubles
  // the dense flops, so the guard prunes the rule entirely.
  RewriteSearchResult dense_closure = EnumerateRewrites(build(1.0), options);
  for (const RewriteCandidate& cand : dense_closure.candidates) {
    for (const RewriteStep& step : cand.chain) {
      EXPECT_NE(step.rule, RewriteRule::kDistribute);
    }
  }

  // Provably zero addends (sparsity endpoint 0.0): the closure must stay
  // sound — every surviving candidate still maps sinks faithfully.
  CheckClosureSemantics(build(0.0), options);
}

TEST_F(RewriteTest, FactorSharedOperand) {
  ComputeGraph g;
  int a = g.AddInput(MatrixType(7, 5), Single(), "A");
  int b = g.AddInput(MatrixType(5, 6), Single(), "B");
  int c = g.AddInput(MatrixType(5, 6), Single(), "C");
  int ab = g.AddOp(OpKind::kMatMul, {a, b}).value();
  int ac = g.AddOp(OpKind::kMatMul, {a, c}).value();
  g.AddOp(OpKind::kAdd, {ab, ac}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_TRUE(rules.count(RewriteRule::kFactor));
}

TEST_F(RewriteTest, ScalarHoistExactnessDependsOnScalar) {
  auto build = [&](double s) {
    ComputeGraph g;
    int a = g.AddInput(MatrixType(6, 4), Single(), "A");
    int b = g.AddInput(MatrixType(4, 6), Single(), "B");
    int sm = g.AddOp(OpKind::kScalarMul, {a}, "", s).value();
    g.AddOp(OpKind::kMatMul, {sm, b}).value();
    return g;
  };

  // Powers of two commute through IEEE multiplication exactly; the hoisted
  // chain must be flagged exact and reproduce bits.
  RewriteOptions options;
  std::set<RewriteRule> pow2 = CheckClosureSemantics(build(0.5), options);
  EXPECT_TRUE(pow2.count(RewriteRule::kScalarHoist));
  bool saw_exact_hoist = false;
  for (const RewriteCandidate& cand :
       EnumerateRewrites(build(0.5), options).candidates) {
    for (const RewriteStep& step : cand.chain) {
      if (step.rule == RewriteRule::kScalarHoist) {
        EXPECT_TRUE(step.exact);
        saw_exact_hoist = true;
      }
    }
  }
  EXPECT_TRUE(saw_exact_hoist);

  // A non-power-of-two hoist regroups roundings: reassociating, still
  // within tolerance.
  for (const RewriteCandidate& cand :
       EnumerateRewrites(build(0.3), options).candidates) {
    for (const RewriteStep& step : cand.chain) {
      if (step.rule == RewriteRule::kScalarHoist) {
        EXPECT_FALSE(step.exact);
      }
    }
  }
  CheckClosureSemantics(build(0.3), options);
}

TEST_F(RewriteTest, AggregateReorderOverTranspose) {
  ComputeGraph g;
  int a = g.AddInput(MatrixType(8, 5), Single(), "A");
  int t = g.AddOp(OpKind::kTranspose, {a}).value();
  g.AddOp(OpKind::kColSum, {t}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_TRUE(rules.count(RewriteRule::kAggregateReorder));
}

TEST_F(RewriteTest, OneByOneEdgeShapesStaySound) {
  // Every dimension collapsed to 1: transposes and matmuls degenerate to
  // scalars, and the closure must stay sound (no crashes, exact bits).
  ComputeGraph g;
  int a = g.AddInput(MatrixType(1, 1), Single(), "A");
  int b = g.AddInput(MatrixType(1, 1), Single(), "B");
  int t1 = g.AddOp(OpKind::kTranspose, {a}).value();
  int t2 = g.AddOp(OpKind::kTranspose, {t1}).value();
  int mm = g.AddOp(OpKind::kMatMul, {t2, b}).value();
  g.AddOp(OpKind::kTranspose, {mm}).value();

  RewriteOptions options;
  std::set<RewriteRule> rules = CheckClosureSemantics(g, options);
  EXPECT_FALSE(rules.empty());
}

// ---------------------------------------------------------------------------
// Closure properties: saturation, idempotence, dedup, budget.

TEST_F(RewriteTest, TransposeClosureSaturates) {
  // A'''' admits exactly three structurally distinct DAGs: 4, 2, and 0
  // transposes. The closure must find all three and stop — saturation,
  // not the budget, ends the enumeration.
  ComputeGraph g;
  int a = g.AddInput(MatrixType(7, 5), Single(), "A");
  int acc = a;
  for (int i = 0; i < 4; ++i) {
    acc = g.AddOp(OpKind::kTranspose, {acc}).value();
  }

  RewriteOptions options;
  RewriteSearchResult closure = EnumerateRewrites(g, options);
  EXPECT_EQ(closure.candidates.size(), 3u);
  EXPECT_FALSE(closure.budget_hit);

  // Idempotence: re-enumerating from the fully reduced candidate finds
  // nothing new.
  const ComputeGraph& best = closure.candidates.back().graph;
  RewriteSearchResult again = EnumerateRewrites(best, options);
  EXPECT_EQ(again.candidates.size(), 1u);
}

TEST_F(RewriteTest, SymmetricSitesDedupByFingerprint) {
  // Regression for the candidate-dedup fix: A'''' has three distinct
  // transpose-elimination sites at depth 1, but all three produce the
  // same A'' DAG — the canonical fingerprint must collapse them to one
  // candidate before any DP search runs.
  ComputeGraph g;
  int a = g.AddInput(MatrixType(6, 9), Single(), "A");
  int acc = a;
  for (int i = 0; i < 4; ++i) {
    acc = g.AddOp(OpKind::kTranspose, {acc}).value();
  }

  RewriteOptions options;
  options.max_depth = 1;
  RewriteSearchResult closure = EnumerateRewrites(g, options);
  EXPECT_EQ(closure.candidates.size(), 2u);
  EXPECT_EQ(closure.applications, 1);
}

TEST_F(RewriteTest, SaturationBudgetReportsBudgetHit) {
  // A rewrite-rich chain under a tiny candidate cap: the closure must
  // stop at the cap and say so (surfaced as MO081).
  ComputeGraph g;
  int a = g.AddInput(MatrixType(8, 6), Single(), "A");
  int b = g.AddInput(MatrixType(6, 5), Single(), "B");
  int c = g.AddInput(MatrixType(5, 7), Single(), "C");
  int d = g.AddInput(MatrixType(7, 4), Single(), "D");
  int ab = g.AddOp(OpKind::kMatMul, {a, b}).value();
  int abc = g.AddOp(OpKind::kMatMul, {ab, c}).value();
  g.AddOp(OpKind::kMatMul, {abc, d}).value();

  RewriteOptions options;
  options.max_candidates = 2;
  RewriteSearchResult closure = EnumerateRewrites(g, options);
  EXPECT_TRUE(closure.budget_hit);
  EXPECT_LE(closure.candidates.size(), 2u);
}

// ---------------------------------------------------------------------------
// Rewrite-aware optimization: cost contract + provenance.

TEST_F(RewriteTest, ChainPicksStrictlyCheaperRewrite) {
  // Size set 1's rank-1 bottleneck (T2 = C x D with C 50K x 1) makes
  // re-association through T2 a massive win: the rewriter must find a
  // strictly cheaper DAG — the paper-program acceptance criterion.
  auto graph = BuildMatMulChainGraph(ChainSizeSet(1));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  RewriteOptions rewrite_options;
  rewrite_options.max_candidates = 16;
  auto plan = OptimizeWithRewrites(graph.value(), catalog_, model_, cluster_,
                                   {}, rewrite_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().rewritten);
  EXPECT_FALSE(plan.value().chain.empty());
  EXPECT_GT(plan.value().CostDelta(), 0.0);
  EXPECT_LT(plan.value().plan.fused_cost, plan.value().baseline_cost);

  // Golden provenance: the explain section names the winning rule chain
  // and the cost movement.
  RewriteStats stats;
  stats.enabled = true;
  stats.rewritten = true;
  stats.exact = plan.value().exact;
  stats.candidates = plan.value().candidates_considered;
  stats.baseline_cost = plan.value().baseline_cost;
  stats.chosen_cost = plan.value().plan.fused_cost;
  for (const RewriteStep& step : plan.value().chain) {
    stats.chain.push_back(step.description);
  }
  std::string golden = stats.ToString();
  EXPECT_NE(golden.find("logical rewriter:"), std::string::npos) << golden;
  EXPECT_NE(golden.find("chosen: rewritten DAG"), std::string::npos) << golden;
  EXPECT_NE(golden.find("matmul_assoc"), std::string::npos) << golden;
  EXPECT_NE(plan.value().ChainString().find("matmul_assoc"),
            std::string::npos);
  EXPECT_GT(stats.CostDelta(), 0.0);
}

TEST_F(RewriteTest, CostNeverWorseOnPaperPrograms) {
  RewriteOptions rewrite_options;
  rewrite_options.max_depth = 2;
  rewrite_options.max_candidates = 8;
  OptimizerOptions optimizer;
  optimizer.max_table_entries = 20000;

  auto check = [&](Result<ComputeGraph> graph, const char* name) {
    ASSERT_TRUE(graph.ok()) << name << ": " << graph.status().ToString();
    auto baseline =
        Optimize(graph.value(), catalog_, model_, cluster_, optimizer);
    ASSERT_TRUE(baseline.ok()) << name << ": " << baseline.status().ToString();
    auto plan = OptimizeWithRewrites(graph.value(), catalog_, model_,
                                     cluster_, optimizer, rewrite_options);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    EXPECT_DOUBLE_EQ(plan.value().baseline_cost, baseline.value().fused_cost)
        << name;
    EXPECT_LE(plan.value().plan.fused_cost,
              baseline.value().fused_cost * (1.0 + 1e-12))
        << name;
    EXPECT_GE(plan.value().CostDelta(), 0.0) << name;
  };

  check(BuildMatMulChainGraph(ChainSizeSet(1)), "chain");
  check(BuildBlockInverseGraph(), "block_inverse");
  FfnnConfig ffnn;
  check(BuildFfnnGraph(ffnn), "ffnn");
}

TEST_F(RewriteTest, KnobOffDegeneratesToPlainOptimize) {
  KnobGuard guard;
  auto graph = BuildMatMulChainGraph(ChainSizeSet(1));
  ASSERT_TRUE(graph.ok());

  OverrideRewriteEnabled(false);
  auto off = OptimizeWithRewrites(graph.value(), catalog_, model_, cluster_);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_FALSE(off.value().rewritten);
  EXPECT_EQ(off.value().candidates_considered, 1);
  EXPECT_TRUE(off.value().chain.empty());

  auto plain = Optimize(graph.value(), catalog_, model_, cluster_);
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(off.value().plan.fused_cost, plain.value().fused_cost);
  EXPECT_DOUBLE_EQ(off.value().baseline_cost, plain.value().fused_cost);

  // Identity provenance: every vertex maps to itself.
  for (int v = 0; v < graph.value().num_vertices(); ++v) {
    EXPECT_EQ(off.value().vertex_map[v], v);
  }
}

}  // namespace
}  // namespace matopt
