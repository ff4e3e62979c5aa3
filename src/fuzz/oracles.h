#ifndef MATOPT_FUZZ_ORACLES_H_
#define MATOPT_FUZZ_ORACLES_H_

#include <string>
#include <vector>

#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "core/ops/catalog.h"
#include "engine/cluster.h"
#include "fuzz/program.h"

namespace matopt::fuzz {

/// Knobs for one oracle-stack run. The defaults are what `matopt_fuzz`
/// uses; tests tighten or disable individual oracles.
struct OracleOptions {
  OptimizerOptions optimizer;

  /// Brute force (Algorithm 2) is exponential; only cross-check plans for
  /// graphs with at most this many op vertices.
  int brute_force_max_ops = 5;

  /// Tolerances for optimized execution vs the naive reference. The
  /// reference accumulates in the same ascending-index order as the local
  /// kernels, but distributed plans split sums across chunks, so rounding
  /// differs by a few ulps per accumulation step.
  double exec_rtol = 1e-6;
  double exec_atol = 1e-6;

  /// Relative tolerance for cost reconstruction (AnnotationCost vs the
  /// optimizer's reported cost) and optimizer cross-agreement.
  double cost_rtol = 1e-6;

  /// Dry-run stat projections are compared exactly (up to this relative
  /// tolerance) when the plan touches no sparse data or formats. Sparse
  /// relations record *measured* sparsity in data mode while dry relations
  /// carry the estimate — they can diverge without bound on degenerate
  /// data — so sparse plans only get a projection-sanity check (finite,
  /// non-negative).
  double dry_run_rtol = 1e-9;

  /// Baseline thread count; the determinism oracle re-runs with 1 thread.
  int threads = 4;

  bool check_tree_dp = true;
  bool check_brute_force = true;
  bool check_reference = true;
  // 1 thread / pool off / simd off (scalar kernels) /
  // fusion off (no fused-group execution)
  bool check_determinism = true;
  bool check_dry_run = true;

  /// Distributed-vs-local oracle: re-run the plan on the sharded
  /// multi-worker runtime (DESIGN.md §12) at each worker count and require
  /// bit-identical sinks. All-dense plans additionally require the
  /// per-stage predicted exchange traffic to equal the measured traffic
  /// exactly.
  bool check_distributed = true;
  std::vector<int> dist_worker_counts = {1, 2, 4, 7};

  /// Bounds-soundness oracle (DESIGN.md §14): every measured per-vertex
  /// density must lie inside the dataflow interval seeded with the
  /// measured input densities, and — at each distributed worker count —
  /// every measured per-stage shuffle/broadcast byte count must lie inside
  /// the statically derived byte interval, with delivery counts exact.
  bool check_bounds = true;

  /// Absolute slack on density membership; relative slack on byte
  /// membership (floating-point headroom for chains of transfers).
  double bounds_slack = 1e-9;

  /// Semantics-preservation oracle for the logical rewriter (DESIGN.md
  /// §16): re-plan with rewrites enabled (reduced saturation budget),
  /// execute the winning graph, and require every mapped sink to match
  /// both the unrewritten plan's execution and the naive reference within
  /// the execution tolerance; the rewritten fused cost may never exceed
  /// the baseline's. Also replays the search with the rewriter forced off
  /// (`rewrite_off`) and requires it to reproduce the baseline plan.
  bool check_rewrite = true;

  /// The rewrite oracle re-plans every candidate DAG, and rewritten
  /// variants of heavily shared graphs (extra transposes widen the live
  /// frontier) can cost orders of magnitude more DP time than the
  /// original, so it only runs on programs with at most this many op
  /// vertices, and candidate planning is beam-capped at
  /// `rewrite_max_table_entries` (self-consistent: every §8 cost
  /// comparison uses the same capped options).
  int rewrite_max_ops = 12;
  int64_t rewrite_max_table_entries = 20000;

  /// Parameterized-reuse oracle for the optimizer service (DESIGN.md §17):
  /// re-cost the baseline plan on a dimension-only variant of the program
  /// (every dimension scaled by `serve_dim_scale`) the way the serve
  /// layer's param fingerprint coalesces them. The re-cost may never
  /// undercut a fresh optimal search there, and whenever the reuse
  /// envelope would accept the cached plan, executing it on the variant
  /// must match the naive reference.
  bool check_serve_reuse = true;
  double serve_reuse_envelope = 1.25;
  int serve_dim_scale = 2;
  int serve_max_ops = 10;
};

/// One oracle disagreement: which oracle tripped and a human-readable
/// account of the mismatch (seeds, vertex ids, deltas).
struct OracleFailure {
  std::string oracle;
  std::string detail;
};

/// Outcome of running the full oracle stack over one program.
struct OracleReport {
  std::vector<OracleFailure> failures;

  bool ok() const { return failures.empty(); }
  /// One "oracle: detail" line per failure.
  std::string ToString() const;
};

/// Runs the full oracle stack over one fuzzed program:
///   1. Frontier DP produces a plan; ValidateAnnotation and the analysis
///      pipeline must find no errors; AnnotationCost must reconstruct the
///      optimizer's reported cost, and the fused cost must reconstruct as
///      that cost minus the fused groups' predicted savings.
///   2. Tree DP (when the graph is a tree) and brute force (when small)
///      must agree with the frontier cost.
///   3. The executed plan must match the naive reference interpreter.
///   4. Execution must be bit-identical and charge identical simulated
///      stats across 1 vs N threads, pool on/off, SIMD on/off, and fusion
///      on/off.
///   5. Dry-run stat projections must match data-mode accounting.
///   6. Every measured per-vertex density must lie inside the sound
///      dataflow interval seeded with the measured input densities.
///   7. The sharded multi-worker runtime must produce bit-identical sinks
///      at every configured worker count; measured per-stage exchange
///      bytes must lie inside the statically derived byte intervals and
///      delivery counts must match exactly.
///   8. The logical rewriter must preserve semantics: the winning
///      (possibly rewritten) graph's execution must match the unrewritten
///      execution and the naive reference at every mapped sink, its fused
///      cost may never exceed the baseline's, and forcing the rewriter
///      off must reproduce the baseline plan.
///   9. Parameterized plan reuse (the optimizer service's envelope
///      protocol) must be sound: on a dimension-scaled variant, the
///      baseline plan's re-cost never undercuts a fresh optimal search,
///      and when the envelope accepts it, the reused plan executes the
///      variant to the naive reference.
/// Global state (default thread count, pool override) is restored before
/// returning, even on failure.
OracleReport RunOracles(const FuzzProgram& program, const Catalog& catalog,
                        const CostModel& model, const ClusterConfig& cluster,
                        const OracleOptions& options = {});

}  // namespace matopt::fuzz

#endif  // MATOPT_FUZZ_ORACLES_H_
