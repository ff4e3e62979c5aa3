#ifndef MATOPT_CORE_REWRITE_REWRITE_H_
#define MATOPT_CORE_REWRITE_REWRITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost/cost_model.h"
#include "core/graph/graph.h"
#include "core/ops/catalog.h"
#include "core/opt/optimizer.h"
#include "engine/cluster.h"

namespace matopt {

// ---------------------------------------------------------------------------
// Runtime knob (mirrors MATOPT_SIMD / MATOPT_FUSION).

/// True when the build compiled with rewriting on by default
/// (-DMATOPT_REWRITE=ON, the default).
bool RewriteCompiled();

/// Effective switch: test override if set, else the MATOPT_REWRITE
/// environment variable (on unless exactly "0"), else the compiled
/// default. Rewriting changes which *logical* DAG is planned, so unlike
/// MATOPT_FUSION it may change sink values within the reassociation
/// tolerance (DESIGN.md §16); chains made only of exact rules preserve
/// every arithmetic operation.
bool RewriteEnabled();

/// Forces rewriting on/off for the calling process (tests, benches).
void OverrideRewriteEnabled(bool enabled);

/// Returns control to the environment variable / compiled default.
void ClearRewriteOverride();

// ---------------------------------------------------------------------------
// Rule catalog (DESIGN.md §16).

/// The logical rewrite rules. "Exact" rules replay the same scalar
/// arithmetic in the same order (pure data movement), so any plan of the
/// rewritten graph that keeps the summing vertices' chunking computes
/// bit-identical values; "reassociating" rules regroup IEEE additions
/// (associativity / distributivity) and are only value-preserving in real
/// arithmetic — they are guarded by RewriteOptions::allow_reassociation.
enum class RewriteRule {
  kTransposeElim = 0,      // (A')' -> A                            exact
  kTransposePushMatMul,    // (A*B)' -> B'*A'                       exact
  kTransposePushElemwise,  // (A op B)' -> A' op B' (zips & maps)   exact
  kAggregateReorder,       // colsum(A') -> rowsum(A)' (and dual)   reassoc
  kMatMulAssoc,            // (A*B)*C <-> A*(B*C)                   reassoc
  kDistribute,             // A*(B+C) -> A*B + A*C (either side)    reassoc
  kFactor,                 // A*B + A*C -> A*(B+C) (either side)    reassoc
  kScalarHoist,            // (s.A)*B -> s.(A*B)    exact iff s = ±2^k
};

inline constexpr int kNumRewriteRules = 8;

const char* RewriteRuleName(RewriteRule rule);

/// One rule application in a rewrite chain.
struct RewriteStep {
  RewriteRule rule = RewriteRule::kTransposeElim;
  /// Vertex id (in the graph the rule was applied to) where the rule fired.
  int vertex = -1;
  /// True when this application preserves IEEE arithmetic exactly.
  bool exact = true;
  /// Human-readable account, e.g. "transpose_push_matmul at v7".
  std::string description;
};

/// One candidate logical DAG: the rewritten graph, the chain of rule
/// applications that produced it, and the vertex correspondence back to
/// the *original* graph.
struct RewriteCandidate {
  ComputeGraph graph;
  std::vector<RewriteStep> chain;
  /// original vertex id -> candidate vertex id; -1 when the original
  /// vertex was eliminated (dead code / CSE-merged). Inputs and sinks are
  /// always preserved.
  std::vector<int> vertex_map;
  /// Canonical structural fingerprint (order-insensitive to vertex
  /// numbering) used to deduplicate symmetric rule applications.
  uint64_t fingerprint = 0;
  /// True when every step of `chain` is exact.
  bool exact = true;
};

/// Knobs of the bounded rule-closure enumeration.
struct RewriteOptions {
  /// Master switch; AND-ed with the MATOPT_REWRITE runtime knob.
  bool enable = true;

  /// Closure depth: maximum chain length of any candidate.
  int max_depth = 3;

  /// Saturation budget: total candidates kept (including the original).
  /// Hitting it sets RewriteSearchResult::budget_hit (surfaced as MO081).
  int max_candidates = 32;

  /// When false, only exact rules apply — every candidate then replays
  /// the original scalar arithmetic operation for operation.
  bool allow_reassociation = true;

  /// Slack of the sparsity-interval guards (interval membership headroom).
  double guard_slack = 1e-9;
};

/// Outcome of the rule-closure enumeration. candidates[0] is always the
/// original graph (empty chain, identity vertex_map).
struct RewriteSearchResult {
  std::vector<RewriteCandidate> candidates;
  /// True when the candidate or depth budget stopped the closure before
  /// it saturated (MO081).
  bool budget_hit = false;
  /// Rule applications that produced a structurally new candidate.
  int applications = 0;
};

/// Canonical structural fingerprint of a compute graph: a hash over the
/// sink expressions (inputs identified by name/type/format/sparsity, ops
/// by kind/scalar/argument structure) that is invariant under vertex
/// renumbering, so symmetric rule applications that produce the same DAG
/// collapse to one candidate before any DP search runs.
uint64_t GraphFingerprint(const ComputeGraph& graph);

/// Bounded rule-closure enumeration: BFS over rule applications up to
/// options.max_depth, deduplicated by canonical fingerprint and capped at
/// options.max_candidates. Every candidate passes the sparsity-interval
/// consistency guard (its sink intervals intersect the original's sound
/// intervals — the apply-time twin of MO080).
RewriteSearchResult EnumerateRewrites(const ComputeGraph& graph,
                                      const RewriteOptions& options = {});

// ---------------------------------------------------------------------------
// Rewrite-aware optimization.

/// Output of OptimizeWithRewrites: the winning logical DAG (== a copy of
/// the input graph when no rewrite won), its physical plan, and the
/// provenance the explain path surfaces.
struct RewrittenPlan {
  /// The graph `plan.annotation` indexes. Execute / DryRun this graph,
  /// not the original, when `rewritten` is true.
  ComputeGraph graph;
  PlanResult plan;

  /// True when a non-empty rewrite chain won (graph differs from the
  /// original).
  bool rewritten = false;
  /// True when every applied step is exact (always true when !rewritten).
  bool exact = true;
  std::vector<RewriteStep> chain;
  /// original vertex id -> chosen-graph vertex id (identity when
  /// !rewritten); -1 for eliminated vertices. Sinks always map.
  std::vector<int> vertex_map;

  int candidates_considered = 1;
  bool budget_hit = false;
  /// Wall-clock seconds of the whole call: enumeration plus every
  /// candidate's search. plan.opt_seconds is the winner's search alone.
  double search_seconds = 0.0;
  /// Best fused cost of the *unrewritten* graph (the baseline the chosen
  /// plan is guaranteed to not exceed).
  double baseline_cost = 0.0;

  /// baseline_cost - plan.fused_cost (>= 0 by construction).
  double CostDelta() const { return baseline_cost - plan.fused_cost; }
  /// One "rule at vN" fragment per step, " ; "-joined ("" when empty).
  std::string ChainString() const;
};

/// Runs the logical rewriter in front of the physical search: enumerates
/// candidate DAGs, runs every candidate through the existing optimizer
/// facade (tree DP / frontier DP + fuse-plan enumeration), and returns the
/// globally cheapest plan by fused cost. Ties prefer the unrewritten
/// graph, then shorter chains, so rewriting never churns plans without a
/// strict win. With rewriting disabled (options.enable false or the
/// MATOPT_REWRITE knob off) this degenerates to Optimize() on the input
/// graph plus identity provenance.
Result<RewrittenPlan> OptimizeWithRewrites(
    const ComputeGraph& graph, const Catalog& catalog, const CostModel& model,
    const ClusterConfig& cluster, const OptimizerOptions& options = {},
    const RewriteOptions& rewrite_options = {});

}  // namespace matopt

#endif  // MATOPT_CORE_REWRITE_REWRITE_H_
