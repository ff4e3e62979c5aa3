#include "fuzz/oracles.h"

#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/dataflow.h"
#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "core/format/format.h"
#include "core/fusion/fusion.h"
#include "core/opt/annotation.h"
#include "core/rewrite/rewrite.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "fuzz/reference.h"
#include "la/simd.h"

namespace matopt::fuzz {

namespace {

/// Restores process-wide execution knobs no matter how the oracle stack
/// exits. Every mutation of the default thread count or the pool override
/// happens inside one of these scopes.
class GlobalStateGuard {
 public:
  GlobalStateGuard() : saved_threads_(ThreadPool::DefaultThreads()) {}
  ~GlobalStateGuard() {
    ThreadPool::SetDefaultThreads(saved_threads_);
    BufferPool::ClearEnabledOverride();
    ClearSimdOverride();
    ClearFusionOverride();
    ClearRewriteOverride();
  }
  GlobalStateGuard(const GlobalStateGuard&) = delete;
  GlobalStateGuard& operator=(const GlobalStateGuard&) = delete;

 private:
  int saved_threads_;
};

bool NearRel(double a, double b, double rtol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= rtol * scale + 1e-12;
}

std::string FmtG(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

/// True when nothing in the program or plan involves sparse data or sparse
/// formats, so dry-run relations carry exactly the metadata data-mode
/// relations would (measured sparsity only diverges from the estimate on
/// sparse payloads).
bool AllDense(const FuzzProgram& program, const Annotation& annotation) {
  const auto& formats = BuiltinFormats();
  auto dense = [&](FormatId f) {
    return f == kNoFormat || !formats[f].sparse();
  };
  for (const auto& [v, spec] : program.inputs) {
    (void)v;
    if (spec.kind == FuzzInputSpec::Kind::kSparse) return false;
  }
  for (const VertexAnnotation& va : annotation.vertices) {
    if (!dense(va.output_format)) return false;
    for (const EdgeAnnotation& ea : va.input_edges) {
      if (!dense(ea.pin) || !dense(ea.pout)) return false;
    }
  }
  return true;
}

int NumOpVertices(const ComputeGraph& graph) {
  int ops = 0;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (graph.vertex(v).op != OpKind::kInput) ++ops;
  }
  return ops;
}

struct RunConfig {
  std::string label;
  int threads = 1;
  bool pool = true;
  int dist_workers = 0;  // 0 = single-node path
  bool simd = true;      // false forces the scalar kernel path
  bool fusion = true;    // false disables fused-group execution
};

struct RunOutput {
  ExecStats stats;
  std::map<int, DenseMatrix> sinks;
};

Result<RunOutput> RunPlan(const FuzzProgram& program,
                          const Annotation& annotation, const Catalog& catalog,
                          const ClusterConfig& cluster,
                          const std::unordered_map<int, Relation>& inputs,
                          const RunConfig& config) {
  ThreadPool::SetDefaultThreads(config.threads);
  BufferPool::OverrideEnabled(config.pool);
  if (config.simd) {
    ClearSimdOverride();  // environment/default-driven, like the baseline
  } else {
    OverrideSimdEnabled(false);
  }
  PlanExecutor executor(catalog, cluster);
  executor.set_fusion(config.fusion);
  // Always pin the worker count so a MATOPT_WORKERS environment override
  // cannot silently turn the baseline runs distributed.
  executor.set_dist_workers(config.dist_workers);
  // Relations share immutable payloads, so this copy is metadata-only.
  MATOPT_ASSIGN_OR_RETURN(
      ExecResult result, executor.Execute(program.graph, annotation, inputs));
  RunOutput out;
  out.stats = std::move(result.stats);
  for (auto& [v, rel] : result.sinks) {
    MATOPT_ASSIGN_OR_RETURN(DenseMatrix m, MaterializeDense(rel));
    out.sinks.emplace(v, std::move(m));
  }
  return out;
}

/// Compares the simulated-cluster accounting of two runs. These totals are
/// tallied from relation metadata on the coordinating thread and must be
/// exactly reproducible across thread counts and memory-layer settings.
std::string DiffSimStats(const ExecStats& a, const ExecStats& b) {
  std::ostringstream out;
  auto check = [&](const char* name, double x, double y) {
    if (x != y) {
      out << name << " " << FmtG(x) << " vs " << FmtG(y) << "; ";
    }
  };
  check("sim_seconds", a.sim_seconds, b.sim_seconds);
  check("flops", a.flops, b.flops);
  check("net_bytes", a.net_bytes, b.net_bytes);
  check("tuples", a.tuples, b.tuples);
  check("peak_worker_mem_bytes", a.peak_worker_mem_bytes,
        b.peak_worker_mem_bytes);
  check("peak_worker_spill_bytes", a.peak_worker_spill_bytes,
        b.peak_worker_spill_bytes);
  return out.str();
}

std::string DiffSinks(const std::map<int, DenseMatrix>& a,
                      const std::map<int, DenseMatrix>& b) {
  if (a.size() != b.size()) return "sink sets differ";
  std::ostringstream out;
  for (const auto& [v, ma] : a) {
    auto it = b.find(v);
    if (it == b.end()) {
      out << "sink v" << v << " missing; ";
      continue;
    }
    if (!(ma == it->second)) out << "sink v" << v << " differs bitwise; ";
  }
  return out.str();
}

/// Exact-zero fraction complement: the measured non-zero density of a
/// reference value (what the sparsity intervals bound).
double MeasuredDensity(const DenseMatrix& m) {
  const int64_t total = m.rows() * m.cols();
  if (total == 0) return 0.0;
  int64_t nnz = 0;
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      if (m(i, j) != 0.0) ++nnz;
    }
  }
  return static_cast<double>(nnz) / static_cast<double>(total);
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  double mx = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      mx = std::max(mx, std::abs(a(i, j) - b(i, j)));
    }
  }
  return mx;
}

}  // namespace

std::string OracleReport::ToString() const {
  std::ostringstream out;
  for (const OracleFailure& f : failures) {
    out << f.oracle << ": " << f.detail << "\n";
  }
  return out.str();
}

OracleReport RunOracles(const FuzzProgram& program, const Catalog& catalog,
                        const CostModel& model, const ClusterConfig& cluster,
                        const OracleOptions& options) {
  GlobalStateGuard guard;
  OracleReport report;
  auto fail = [&](const std::string& oracle, const std::string& detail) {
    report.failures.push_back({oracle, detail});
  };

  const ComputeGraph& graph = program.graph;

  // --- 1. Plan search + validity invariants -------------------------------
  auto frontier =
      FrontierOptimize(graph, catalog, model, cluster, options.optimizer);
  if (!frontier.ok()) {
    fail("frontier_optimize", frontier.status().ToString());
    return report;
  }
  const Annotation& annotation = frontier.value().annotation;

  Status valid = ValidateAnnotation(graph, annotation, catalog, cluster);
  if (!valid.ok()) fail("validate_annotation", valid.ToString());

  DiagnosticList diags =
      AnalyzePlan(graph, annotation, catalog, &model, cluster);
  if (diags.HasErrors()) fail("analysis", diags.ToString());

  const double recosted =
      AnnotationCost(graph, annotation, catalog, model, cluster);
  if (!NearRel(recosted, frontier.value().cost, options.cost_rtol)) {
    fail("cost_reconstruction",
         "AnnotationCost " + FmtG(recosted) + " vs optimizer cost " +
             FmtG(frontier.value().cost));
  }

  // Fusion cost agreement: the plan's fused cost must reconstruct as the
  // unfused cost minus the savings the fused groups predict, and fusing
  // can never make the plan look more expensive (savings are clamped to
  // each member's own predicted cost).
  {
    const double savings =
        FusionPlanSavings(graph, annotation, catalog, model, cluster);
    const double fused = frontier.value().fused_cost;
    if (!NearRel(frontier.value().cost - savings, fused, options.cost_rtol)) {
      fail("fusion_cost_agreement",
           "cost " + FmtG(frontier.value().cost) + " - savings " +
               FmtG(savings) + " vs fused_cost " + FmtG(fused));
    }
    if (fused > frontier.value().cost * (1.0 + options.cost_rtol) + 1e-12) {
      fail("fusion_cost_agreement", "fused_cost " + FmtG(fused) +
                                        " exceeds unfused cost " +
                                        FmtG(frontier.value().cost));
    }
  }

  // --- 2. Optimizer cross-agreement ---------------------------------------
  // Tree DP and brute force are exact; the frontier DP is exact unless it
  // hit its beam cap, in which case it may only be costlier.
  auto cross_check = [&](const char* name, const Result<PlanResult>& other) {
    if (!other.ok()) {
      fail(name, other.status().ToString());
      return;
    }
    Status other_valid =
        ValidateAnnotation(graph, other.value().annotation, catalog, cluster);
    if (!other_valid.ok()) {
      fail(name, "invalid annotation: " + other_valid.ToString());
    }
    const double fc = frontier.value().cost;
    const double oc = other.value().cost;
    const bool agree = frontier.value().beam_pruned
                           ? oc <= fc * (1.0 + options.cost_rtol) + 1e-12
                           : NearRel(fc, oc, options.cost_rtol);
    if (!agree) {
      fail(name, std::string("cost ") + FmtG(oc) + " vs frontier " + FmtG(fc) +
                     (frontier.value().beam_pruned ? " (beam pruned)" : ""));
    }
  };
  if (options.check_tree_dp && graph.IsTree()) {
    cross_check("tree_dp_agreement",
                TreeDpOptimize(graph, catalog, model, cluster,
                               options.optimizer));
  }
  if (options.check_brute_force &&
      NumOpVertices(graph) <= options.brute_force_max_ops) {
    cross_check("brute_force_agreement",
                BruteForceOptimize(graph, catalog, model, cluster,
                                   options.optimizer));
  }

  // --- 3. Execution vs the naive reference --------------------------------
  auto relations = MaterializeRelations(program, cluster);
  if (!relations.ok()) {
    fail("materialize", relations.status().ToString());
    return report;
  }

  const RunConfig baseline_config = {"baseline", options.threads, true};
  auto baseline =
      RunPlan(program, annotation, catalog, cluster, relations.value(),
              baseline_config);
  if (!baseline.ok()) {
    fail("execute", baseline.status().ToString());
    return report;
  }

  if (options.check_reference) {
    auto reference = EvaluateReference(graph, MaterializeDenseInputs(program));
    if (!reference.ok()) {
      fail("reference", reference.status().ToString());
    } else {
      for (const auto& [v, expected] : reference.value()) {
        auto it = baseline.value().sinks.find(v);
        if (it == baseline.value().sinks.end()) {
          fail("reference", "sink v" + std::to_string(v) +
                                " missing from execution result");
          continue;
        }
        if (!AllClose(it->second, expected, options.exec_rtol,
                      options.exec_atol)) {
          fail("reference",
               "sink v" + std::to_string(v) + " diverges, max abs diff " +
                   FmtG(MaxAbsDiff(it->second, expected)));
        }
      }
    }
  }

  // --- 4. Determinism contracts -------------------------------------------
  if (options.check_determinism) {
    std::vector<RunConfig> variants = {
        {"one_thread", 1, true},
        {"pool_off", options.threads, false},
        // Fused-group execution changes only where bytes live: sinks and
        // the simulated accounting must be bit-identical with fusion off.
        {"fusion_off", options.threads, true, /*dist_workers=*/0,
         /*simd=*/true, /*fusion=*/false},
    };
    // Kernel-dispatch boundary: forcing the scalar kernels must reproduce
    // the (default, possibly vectorized) baseline bit-for-bit. Skipped
    // when no SIMD path exists — the A/B would compare scalar to scalar.
    if (SimdCompiled() && SimdSupportedByCpu()) {
      variants.push_back(
          {"simd_off", options.threads, true, /*dist_workers=*/0,
           /*simd=*/false});
    }
    for (const RunConfig& config : variants) {
      auto variant = RunPlan(program, annotation, catalog, cluster,
                             relations.value(), config);
      if (!variant.ok()) {
        fail(config.label, variant.status().ToString());
        continue;
      }
      std::string sink_diff =
          DiffSinks(baseline.value().sinks, variant.value().sinks);
      if (!sink_diff.empty()) fail(config.label, sink_diff);
      std::string stat_diff =
          DiffSimStats(baseline.value().stats, variant.value().stats);
      if (!stat_diff.empty()) fail(config.label, stat_diff);
    }
  }

  // --- 5. Dry-run projection ----------------------------------------------
  if (options.check_dry_run) {
    ThreadPool::SetDefaultThreads(options.threads);
    BufferPool::OverrideEnabled(true);
    PlanExecutor executor(catalog, cluster);
    auto dry = executor.DryRun(graph, annotation);
    if (!dry.ok()) {
      fail("dry_run", dry.status().ToString());
    } else {
      // All-dense plans must project exactly: every estimate the dry run
      // uses (shapes, dense layouts) is exact. Once sparse data or formats
      // are involved, data mode measures actual sparsity while the dry run
      // keeps the propagated estimate, and the two can diverge by orders
      // of magnitude on degenerate data (sub(x, x) is exactly zero) — the
      // very gap the re-optimizing executor exists to close — so sparse
      // plans only get a projection-sanity check.
      const bool strict = AllDense(program, annotation);
      const ExecStats& d = dry.value().stats;
      const ExecStats& e = baseline.value().stats;
      std::ostringstream diff;
      auto check = [&](const char* name, double projected, double actual) {
        if (!(std::isfinite(projected) && projected >= 0.0)) {
          diff << name << " projection " << FmtG(projected)
               << " not finite/non-negative; ";
        } else if (strict && !NearRel(projected, actual, options.dry_run_rtol)) {
          diff << name << " projected " << FmtG(projected) << " vs actual "
               << FmtG(actual) << "; ";
        }
      };
      check("sim_seconds", d.sim_seconds, e.sim_seconds);
      check("flops", d.flops, e.flops);
      check("net_bytes", d.net_bytes, e.net_bytes);
      check("tuples", d.tuples, e.tuples);
      if (!diff.str().empty()) {
        fail("dry_run", (strict ? "strict: " : "loose: ") + diff.str());
      }
    }
  }

  // --- 6. Static bounds soundness (density half) --------------------------
  // The forward dataflow seeded with the *measured* input densities must
  // contain every measured vertex density: this mechanically enforces the
  // transfer functions' soundness contract (DESIGN.md §14) on real data.
  std::optional<DataflowResult> bounds_flow;
  if (options.check_bounds) {
    auto values =
        EvaluateReferenceAllVertices(graph, MaterializeDenseInputs(program));
    if (!values.ok()) {
      fail("bounds_density", values.status().ToString());
    } else {
      std::unordered_map<int, double> seeds;
      for (int v = 0; v < graph.num_vertices(); ++v) {
        if (graph.vertex(v).op == OpKind::kInput) {
          seeds.emplace(v, MeasuredDensity(values.value()[v]));
        }
      }
      DataflowResult flow = RunSparsityDataflow(graph, &seeds);
      for (int v = 0; v < graph.num_vertices(); ++v) {
        const double measured = MeasuredDensity(values.value()[v]);
        const SparsityInterval& iv = flow.at(v);
        if (!iv.Contains(measured, options.bounds_slack)) {
          fail("bounds_density",
               "v" + std::to_string(v) + " (" +
                   OpKindName(graph.vertex(v).op) + ") measured density " +
                   FmtG(measured) + " outside sound interval [" +
                   FmtG(iv.lo) + ", " + FmtG(iv.hi) + "]");
        }
      }
      bounds_flow = std::move(flow);
    }
  }

  // --- 7. Distributed runtime vs single-node + bounds (byte half) ---------
  // The sharded multi-worker runtime promises bit-identical sinks at any
  // worker count; its simulated projection is a single-node dry pass, so
  // on all-dense plans it must match the data run within the dry-run
  // tolerance and every stage's predicted traffic must equal the measured.
  if (options.check_distributed) {
    const bool strict = AllDense(program, annotation);
    // Analyzer metadata must mirror the runtime's: the planning-side
    // relation sparsity of each input is whatever the materialized
    // relation carries (measured for sparse formats).
    std::unordered_map<int, double> rel_density;
    for (const auto& [v, rel] : relations.value()) {
      rel_density.emplace(v, rel.sparsity);
    }
    for (int workers : options.dist_worker_counts) {
      if (workers < 1) continue;
      RunConfig config;
      config.label = "dist_w" + std::to_string(workers);
      config.threads = options.threads;
      config.dist_workers = workers;
      auto variant = RunPlan(program, annotation, catalog, cluster,
                             relations.value(), config);
      if (!variant.ok()) {
        fail(config.label, variant.status().ToString());
        continue;
      }
      std::string sink_diff =
          DiffSinks(baseline.value().sinks, variant.value().sinks);
      if (!sink_diff.empty()) fail(config.label, sink_diff);

      const DistStats& dist = variant.value().stats.dist;
      if (dist.num_workers != workers) {
        fail(config.label, "dist stats report " +
                               std::to_string(dist.num_workers) +
                               " workers, expected " +
                               std::to_string(workers));
      }
      std::ostringstream diff;
      auto check_sim = [&](const char* name, double dist_side,
                           double local_side) {
        if (!(std::isfinite(dist_side) && dist_side >= 0.0)) {
          diff << name << " " << FmtG(dist_side)
               << " not finite/non-negative; ";
        } else if (strict &&
                   !NearRel(dist_side, local_side, options.dry_run_rtol)) {
          diff << name << " " << FmtG(dist_side) << " vs single-node "
               << FmtG(local_side) << "; ";
        }
      };
      const ExecStats& e = baseline.value().stats;
      const ExecStats& v = variant.value().stats;
      check_sim("sim_seconds", v.sim_seconds, e.sim_seconds);
      check_sim("flops", v.flops, e.flops);
      check_sim("net_bytes", v.net_bytes, e.net_bytes);
      check_sim("tuples", v.tuples, e.tuples);
      if (strict) {
        for (const auto& s : dist.stages) {
          if (s.measured_tuples != s.predicted_tuples ||
              s.measured_shuffle_bytes != s.predicted_shuffle_bytes ||
              s.measured_broadcast_bytes != s.predicted_broadcast_bytes) {
            diff << "stage " << s.label << " predicted ("
                 << FmtG(s.predicted_shuffle_bytes) << ", "
                 << FmtG(s.predicted_broadcast_bytes) << ", "
                 << FmtG(s.predicted_tuples) << ") vs measured ("
                 << FmtG(s.measured_shuffle_bytes) << ", "
                 << FmtG(s.measured_broadcast_bytes) << ", "
                 << FmtG(s.measured_tuples) << "); ";
          }
        }
      }
      if (!diff.str().empty()) {
        fail(config.label, (strict ? "strict: " : "loose: ") + diff.str());
      }

      // Bounds oracle, byte half: every measured per-stage exchange byte
      // count must lie inside the statically derived interval; delivery
      // counts (pure metadata) must match exactly.
      if (options.check_bounds && bounds_flow.has_value()) {
        auto bounds =
            ComputeDistStageBounds(catalog, cluster, graph, annotation,
                                   *bounds_flow, workers, &rel_density);
        if (!bounds.ok()) {
          fail("bounds_bytes", config.label + ": " +
                                   bounds.status().ToString());
          continue;
        }
        const auto& stages = dist.stages;
        if (stages.size() != bounds.value().size()) {
          fail("bounds_bytes",
               config.label + ": analyzer derived " +
                   std::to_string(bounds.value().size()) +
                   " stages but the runtime recorded " +
                   std::to_string(stages.size()));
          continue;
        }
        for (size_t i = 0; i < stages.size(); ++i) {
          const auto& s = stages[i];
          const StageBounds& sb = bounds.value()[i];
          if (s.label != sb.label) {
            fail("bounds_bytes", config.label + ": stage " +
                                     std::to_string(i) + " label " + s.label +
                                     " vs analyzer " + sb.label);
            continue;
          }
          auto member = [&](const char* what, double measured,
                            const ByteInterval& iv) {
            if (!iv.Contains(measured, options.bounds_slack)) {
              fail("bounds_bytes",
                   config.label + ": stage " + s.label + " measured " + what +
                       " " + FmtG(measured) + " outside [" + FmtG(iv.lo) +
                       ", " + FmtG(iv.hi) + "]");
            }
          };
          member("shuffle bytes", s.measured_shuffle_bytes, sb.shuffle_bytes);
          member("broadcast bytes", s.measured_broadcast_bytes,
                 sb.broadcast_bytes);
          if (s.measured_tuples != sb.tuples) {
            fail("bounds_bytes",
                 config.label + ": stage " + s.label + " delivered " +
                     FmtG(s.measured_tuples) + " tuples, analyzer expects " +
                     FmtG(sb.tuples));
          }
        }
      }
    }
  }

  // --- 8. Logical-rewrite semantics preservation ---------------------------
  // Re-plan through the rewriter (DESIGN.md §16) with a reduced saturation
  // budget so the oracle stays fuzz-speed, execute the winning graph on
  // the same input data, and require every mapped sink to agree with the
  // unrewritten execution and the naive reference within the execution
  // tolerance (reassociating chains change summation order, so exact
  // equality is not the contract here). The chosen fused cost may never
  // exceed the unrewritten baseline's, and forcing the knob off must
  // reproduce the baseline plan.
  if (options.check_rewrite &&
      NumOpVertices(graph) <= options.rewrite_max_ops) {
    RewriteOptions rw_options;
    rw_options.max_depth = 2;
    rw_options.max_candidates = 12;
    OptimizerOptions rw_optimizer = options.optimizer;
    rw_optimizer.max_table_entries = std::min(
        rw_optimizer.max_table_entries, options.rewrite_max_table_entries);
    auto rw = OptimizeWithRewrites(graph, catalog, model, cluster,
                                   rw_optimizer, rw_options);
    if (!rw.ok()) {
      fail("rewrite", rw.status().ToString());
      return report;
    }
    const RewrittenPlan& rw_plan = rw.value();
    if (rw_plan.plan.fused_cost >
        rw_plan.baseline_cost * (1.0 + options.cost_rtol) + 1e-12) {
      fail("rewrite_cost",
           "chosen fused cost " + FmtG(rw_plan.plan.fused_cost) +
               " exceeds the unrewritten baseline " +
               FmtG(rw_plan.baseline_cost) + " (chain: " +
               rw_plan.ChainString() + ")");
    }

    // rewrite_off determinism variant: with the process-wide override
    // forced off, the facade must degenerate to the plain optimizer.
    OverrideRewriteEnabled(false);
    auto off = OptimizeWithRewrites(graph, catalog, model, cluster,
                                    rw_optimizer, rw_options);
    ClearRewriteOverride();
    if (!off.ok()) {
      fail("rewrite_off", off.status().ToString());
    } else if (off.value().rewritten ||
               off.value().candidates_considered != 1) {
      fail("rewrite_off",
           "rewriter enumerated " +
               std::to_string(off.value().candidates_considered) +
               " candidates with the override off");
    } else if (!NearRel(off.value().plan.fused_cost, rw_plan.baseline_cost,
                        options.cost_rtol)) {
      fail("rewrite_off",
           "fused cost " + FmtG(off.value().plan.fused_cost) +
               " vs unrewritten baseline " + FmtG(rw_plan.baseline_cost));
    }

    if (rw_plan.rewritten) {
      std::unordered_map<int, Relation> remapped;
      bool map_ok = true;
      for (const auto& [v, rel] : relations.value()) {
        const int mv = v < static_cast<int>(rw_plan.vertex_map.size())
                           ? rw_plan.vertex_map[v]
                           : -1;
        if (mv < 0) {
          fail("rewrite", "input v" + std::to_string(v) +
                              " has no image in the rewritten graph");
          map_ok = false;
          break;
        }
        remapped.emplace(mv, rel);
      }
      if (map_ok) {
        FuzzProgram rw_program;
        rw_program.graph = rw_plan.graph;
        const RunConfig config = {"rewrite_exec", options.threads, true};
        auto rw_run = RunPlan(rw_program, rw_plan.plan.annotation, catalog,
                              cluster, remapped, config);
        if (!rw_run.ok()) {
          fail("rewrite_exec", rw_run.status().ToString());
        } else {
          auto reference =
              EvaluateReference(graph, MaterializeDenseInputs(program));
          for (int s : graph.Sinks()) {
            const int ms = s < static_cast<int>(rw_plan.vertex_map.size())
                               ? rw_plan.vertex_map[s]
                               : -1;
            auto it = rw_run.value().sinks.find(ms);
            if (ms < 0 || it == rw_run.value().sinks.end()) {
              fail("rewrite_exec",
                   "sink v" + std::to_string(s) +
                       " has no image in the rewritten execution (chain: " +
                       rw_plan.ChainString() + ")");
              continue;
            }
            auto base = baseline.value().sinks.find(s);
            if (base != baseline.value().sinks.end() &&
                !AllClose(it->second, base->second, options.exec_rtol,
                          options.exec_atol)) {
              fail("rewrite_exec",
                   "sink v" + std::to_string(s) +
                       " diverges from the unrewritten run, max abs diff " +
                       FmtG(MaxAbsDiff(it->second, base->second)) +
                       " (chain: " + rw_plan.ChainString() + ")");
            }
            if (reference.ok()) {
              auto ref = reference.value().find(s);
              if (ref != reference.value().end() &&
                  !AllClose(it->second, ref->second, options.exec_rtol,
                            options.exec_atol)) {
                fail("rewrite_exec",
                     "sink v" + std::to_string(s) +
                         " diverges from the reference, max abs diff " +
                         FmtG(MaxAbsDiff(it->second, ref->second)) +
                         " (chain: " + rw_plan.ChainString() + ")");
              }
            }
          }
        }
      }
    }
  }

  // --- 9. Serve parameterized-reuse envelope (DESIGN.md §17) ---------------
  // The optimizer service reuses a cached physical plan across
  // dimension-only variants of a program once it re-costs within an
  // envelope of a fresh search. Replay that protocol: scale every
  // dimension by the same factor (structure, names, formats, and declared
  // sparsity unchanged — exactly what the param fingerprint coalesces),
  // re-cost the baseline annotation on the variant, and hold a validating
  // donor to the protocol's two promises. The re-cost may never undercut
  // the fresh search (frontier DP is optimal absent beam pruning, so a
  // cheaper reused plan means the cost model went inconsistent), and an
  // envelope-accepted plan must execute the variant to the reference.
  if (options.check_serve_reuse &&
      NumOpVertices(graph) <= options.serve_max_ops) {
    ComputeGraph scaled;
    bool build_ok = true;
    for (int v = 0; v < graph.num_vertices() && build_ok; ++v) {
      const Vertex& vx = graph.vertex(v);
      if (vx.op == OpKind::kInput) {
        MatrixType type = vx.type;
        // Extent-1 dimensions carry broadcast semantics (bias rows,
        // rank-1 factors) and must survive the scaling unchanged.
        for (int64_t& d : type.shape) {
          if (d > 1) d *= options.serve_dim_scale;
        }
        scaled.AddInput(type, vx.input_format, vx.name, vx.sparsity);
      } else {
        auto added = scaled.AddOp(vx.op, vx.inputs, vx.name, vx.scalar);
        if (!added.ok()) {
          fail("serve_reuse", "dimension-scaled variant failed type "
                              "inference: " +
                                  added.status().ToString());
          build_ok = false;
        }
      }
    }
    // The donor plan may legitimately not validate on the new shapes (the
    // service falls through to a fresh search then), so only a validating
    // donor is held to the promises.
    if (build_ok &&
        ValidateAnnotation(scaled, annotation, catalog, cluster).ok()) {
      const double recost =
          AnnotationCost(scaled, annotation, catalog, model, cluster);
      auto fresh =
          FrontierOptimize(scaled, catalog, model, cluster, options.optimizer);
      if (!fresh.ok()) {
        fail("serve_reuse", "fresh search on the scaled variant failed: " +
                                fresh.status().ToString());
      } else {
        if (!fresh.value().beam_pruned && std::isfinite(recost) &&
            recost < fresh.value().cost * (1.0 - options.cost_rtol) - 1e-12) {
          fail("serve_reuse", "re-costed donor " + FmtG(recost) +
                                  " undercuts the fresh optimal search " +
                                  FmtG(fresh.value().cost));
        }
        const bool accepted =
            std::isfinite(recost) &&
            recost <= options.serve_reuse_envelope *
                          std::max(fresh.value().fused_cost, 1e-12);
        if (accepted) {
          FuzzProgram scaled_program;
          scaled_program.graph = scaled;
          scaled_program.shape = program.shape;
          scaled_program.seed = program.seed;
          scaled_program.inputs = program.inputs;
          auto scaled_relations =
              MaterializeRelations(scaled_program, cluster);
          if (!scaled_relations.ok()) {
            fail("serve_reuse", scaled_relations.status().ToString());
          } else {
            const RunConfig config = {"serve_reuse", options.threads, true};
            auto reused = RunPlan(scaled_program, annotation, catalog,
                                  cluster, scaled_relations.value(), config);
            auto reference = EvaluateReference(
                scaled, MaterializeDenseInputs(scaled_program));
            if (!reused.ok()) {
              fail("serve_reuse",
                   "envelope-accepted reused plan failed to execute: " +
                       reused.status().ToString());
            } else if (!reference.ok()) {
              fail("serve_reuse", reference.status().ToString());
            } else {
              for (const auto& [s, expected] : reference.value()) {
                auto it = reused.value().sinks.find(s);
                if (it == reused.value().sinks.end()) {
                  fail("serve_reuse",
                       "sink v" + std::to_string(s) +
                           " missing from the reused execution");
                } else if (!AllClose(it->second, expected, options.exec_rtol,
                                     options.exec_atol)) {
                  fail("serve_reuse",
                       "sink v" + std::to_string(s) +
                           " of the reused plan diverges from the "
                           "reference, max abs diff " +
                           FmtG(MaxAbsDiff(it->second, expected)));
                }
              }
            }
          }
        }
      }
    }
  }

  return report;
}

}  // namespace matopt::fuzz
