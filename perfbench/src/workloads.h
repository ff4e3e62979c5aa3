// The two workloads of the matopt benchmark (see perfbench/README.md):
//   cold_plan  every request is a fresh OptimizerService::Handle, so plan
//              search dominates;
//   warm_exec  cache-hit Handle + PlanExecutor::Execute of the plan on
//              the single-node engine and on the sharded runtime (4
//              workers), each checked bit for bit.
// Each drives the library in process from one client thread, checks every
// executed sink against the fuzz reference interpreter and reports the
// end-to-end metrics; a traced run also reports per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/graph/graph.h"
#include "la/dense_matrix.h"
#include "stats.h"

namespace perfbench {

/// Whole rounds every untraced run sends, however short: each program runs
/// at least twice, and peak_rss_mb is read when these rounds are done. A
/// traced run sends every request twice, so one round is its minimum.
constexpr int kMinRounds = 2;

/// Thread-pool size of every run (fewer where the machine has fewer CPUs).
constexpr int kPoolThreads = 2;

/// Dense sink values by name: the program's output name for declared
/// outputs (as OptimizerService reports them), else the vertex name.
using SinkSet = std::map<std::string, matopt::DenseMatrix>;

/// Deterministic dense inputs of `graph`, keyed by input name: input X
/// gets GaussianMatrix(rows, cols, InputSeed(seed, "X")) — the same data
/// OptimizerService::Handle fabricates for a request with input_seed
/// `seed`, so its sink checksums can be recomputed here. Sparse inputs are
/// rejected (no executed program of the benchmark has one).
matopt::Result<std::map<std::string, matopt::DenseMatrix>> MakeInputs(
    const matopt::ComputeGraph& graph, uint64_t seed);

/// The per-input seed of the optimizer service: request seed mixed with
/// the input's name (FNV-1a), forced odd.
uint64_t InputSeed(uint64_t request_seed, const std::string& name);

/// Bit-identity of two sink sets (same names, shapes and bytes). On
/// mismatch `why` names the first differing sink.
bool SinksIdentical(const SinkSet& expected, const SinkSet& got,
                    std::string* why);

/// Every sink of `got` within rtol/atol of `reference` (the fuzz oracle's
/// AllClose rule). On mismatch `why` names the sink and its max abs diff.
bool SinksClose(const SinkSet& reference, const SinkSet& got, double rtol,
                double atol, std::string* why);

/// Outcome accounting of one run. A request is ok, a known failure (the
/// documented error of a program listed in KnownFailure) or failed; a
/// program whose verification fails after the loop turns all of its ok
/// requests into failures.
class Tally {
 public:
  void Ok(const std::string& program);
  void Known(const std::string& program, const std::string& status);
  void Fail(const std::string& program, const std::string& why);
  /// Marks every ok request of `program` as failed (its output was wrong).
  void FailProgram(const std::string& program, const std::string& why);

  int64_t attempted() const { return ok_ + known_ + failed_; }
  int64_t ok() const { return ok_; }
  int64_t known() const { return known_; }
  int64_t failed() const { return failed_; }
  /// Requests that failed or were known to fail, over requests attempted.
  double error_ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }
  /// Last status seen per program: "ok", "known failure: ..." or "FAILED".
  const std::map<std::string, std::string>& status() const { return status_; }

 private:
  int64_t ok_ = 0;
  int64_t known_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, int64_t> ok_by_program_;
  std::map<std::string, std::string> status_;
  std::vector<std::string> messages_;
};

/// The documented error a program is known to fail with today, or "" when
/// it is expected to succeed. A request failing with exactly this error
/// is a known failure; any other error is a failure.
std::string KnownFailure(const std::string& program);

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where result and span files go ("" = none)
};

/// Per-program row of a run.
struct ProgramRow {
  std::string name;
  bool executed = false;
  std::vector<double> latencies;         // untraced request latencies
  std::vector<double> traced_latencies;  // traced-path request latencies
  double fused_cost = 0.0;               // chosen plan's fused_cost (sim s)
  double sim_seconds = 0.0;              // chosen plan's dry-run sim time
  /// Traced-run samples by metric name: each layer's self time per
  /// request ("<span>_s") and the counters of each traced plan search and
  /// execution.
  std::map<std::string, std::vector<double>> samples;
};

struct WorkloadResult {
  std::string workload;
  Tally tally;
  std::vector<double> setup_seconds;
  std::vector<int> setup_cpus;  // CPU each set-up was pinned to, -1 if none
  // Untraced latencies of the requests that returned a result (the
  // percentiles' samples; errors count in ok_ratio).
  std::vector<double> latencies;
  double busy_seconds = 0.0;      // client time spent inside requests
  double plan_cost = 0.0;
  double plan_sim = 0.0;
  double peak_rss_mb = 0.0;  // process peak after peak_rss_rounds rounds
  int peak_rss_rounds = 0;   // the minimum rounds of the run
  std::vector<ProgramRow> rows;
  /// Per-layer metrics of a traced run, by metric name.
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

/// Runs one workload. Fails only on problems that make the run
/// meaningless (unreadable programs, an unknown workload); request and
/// verification failures are counted in the result.
matopt::Result<WorkloadResult> RunWorkload(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
