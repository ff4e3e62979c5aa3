#ifndef MATOPT_BENCH_BENCH_UTIL_H_
#define MATOPT_BENCH_BENCH_UTIL_H_

// Shared helpers for the per-figure benchmark binaries. Each binary
// regenerates one table/figure of the paper on the simulated cluster and
// prints the measured rows next to the paper's published values (see
// EXPERIMENTS.md for the comparison record).

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/all_tile_planner.h"
#include "baselines/expert_planner.h"
#include "common/units.h"
#include "core/cost/cost_model.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "ml/workloads.h"

namespace matopt {

/// Outcome of planning + executing one configuration.
struct BenchCell {
  bool failed = false;        // engine OOM / no feasible plan => "Fail"
  double sim_seconds = 0.0;   // simulated runtime
  double opt_seconds = -1.0;  // optimizer wall-clock (when applicable)

  std::string ToString(bool with_opt = false) const {
    if (failed) return "Fail";
    std::string out = FormatHms(sim_seconds);
    if (with_opt && opt_seconds >= 0.0) {
      out += " (" + FormatMs(opt_seconds) + ")";
    }
    return out;
  }
};

/// Optimizes `graph` and dry-runs the plan; failures map to "Fail".
inline BenchCell RunAuto(const ComputeGraph& graph, const Catalog& catalog,
                         const ClusterConfig& cluster,
                         const OptimizerOptions& options = {}) {
  BenchCell cell;
  CostModel model = CostModel::Analytic(cluster);
  auto plan = Optimize(graph, catalog, model, cluster, options);
  if (!plan.ok()) {
    cell.failed = true;
    return cell;
  }
  cell.opt_seconds = plan.value().opt_seconds;
  PlanExecutor executor(catalog, cluster);
  auto run = executor.DryRun(graph, plan.value().annotation);
  if (!run.ok()) {
    cell.failed = true;
    return cell;
  }
  cell.sim_seconds = run.value().stats.sim_seconds;
  return cell;
}

/// Plans with a human-style rule set and dry-runs the plan.
inline BenchCell RunRules(const ComputeGraph& graph, const Catalog& catalog,
                          const ClusterConfig& cluster,
                          const PlannerRules& rules) {
  BenchCell cell;
  auto annotation = PlanWithRules(graph, catalog, cluster, rules);
  if (!annotation.ok()) {
    cell.failed = true;
    return cell;
  }
  PlanExecutor executor(catalog, cluster);
  auto run = executor.DryRun(graph, annotation.value());
  if (!run.ok()) {
    cell.failed = true;
    return cell;
  }
  cell.sim_seconds = run.value().stats.sim_seconds;
  return cell;
}

/// The enclosing repo root: the nearest ancestor of the current directory
/// containing ROADMAP.md, or "" outside a checkout (standalone installs).
inline std::string RepoRoot() {
  char cwd[4096];
  if (::getcwd(cwd, sizeof(cwd)) == nullptr) return "";
  std::string dir = cwd;
  while (!dir.empty()) {
    struct stat st;
    if (::stat((dir + "/ROADMAP.md").c_str(), &st) == 0) return dir;
    size_t slash = dir.rfind('/');
    if (slash == std::string::npos || slash == 0) break;
    dir.resize(slash);
  }
  return "";
}

/// Path of a checked-in input file (e.g. "examples/programs/x.mla"): under
/// RepoRoot(), else relative to the current directory. MATOPT_BENCH_DIR
/// never moves inputs.
inline std::string RepoInputPath(const std::string& rel_path) {
  const std::string root = RepoRoot();
  return root.empty() ? rel_path : root + "/" + rel_path;
}

/// Where a bench harness writes its BENCH_*.json result file. Every
/// harness uses this so the checked-in JSONs land in one place no matter
/// which directory the binary runs from:
///   1. $MATOPT_BENCH_DIR when set (CI points this at the workspace);
///   2. else RepoRoot();
///   3. else the current directory (standalone installs).
inline std::string BenchOutputPath(const std::string& file_name) {
  const char* override_dir = std::getenv("MATOPT_BENCH_DIR");
  if (override_dir != nullptr && override_dir[0] != '\0') {
    return std::string(override_dir) + "/" + file_name;
  }
  const std::string root = RepoRoot();
  return root.empty() ? file_name : root + "/" + file_name;
}

inline void PrintHeader(const char* figure, const char* title) {
  std::printf("==============================================================="
              "=\n%s — %s\n"
              "Times are simulated seconds on the modeled cluster (H:MM:SS / "
              "MM:SS);\nparenthesized opt times are real wall-clock. 'Fail' ="
              " resource budget\nexceeded, as in the paper.\n"
              "==============================================================="
              "=\n",
              figure, title);
}

}  // namespace matopt

#endif  // MATOPT_BENCH_BENCH_UTIL_H_
