#ifndef MATOPT_ENGINE_EXEC_STATS_H_
#define MATOPT_ENGINE_EXEC_STATS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cluster.h"
#include "la/kernel_stats.h"

namespace matopt {

/// Host-side allocation/copy behaviour of one execution. These measure
/// the *local* memory traffic of the executor process (not the simulated
/// cluster): payload bytes written through copy paths vs. transferred by
/// reuse, allocations avoided, and BufferPool activity.
///
/// `bytes_copied`/`bytes_moved` and the kernel counters are tallied at
/// sequential points on the coordinating thread, so they are exactly
/// reproducible at any thread count; the pool_* fields come from the
/// process-wide pool counters and depend on scheduling (observability
/// only). In dry-run mode the deterministic fields are a projection of
/// what a data-mode run would do (refcount-1 reuse assumed to succeed),
/// so EXPLAIN can report them at paper scale.
struct MemoryStats {
  double bytes_copied = 0.0;   // payload bytes written via copy paths
  double bytes_moved = 0.0;    // payload bytes reused in place / shared
  int64_t allocs_avoided = 0;  // temporaries never materialized
  int64_t inplace_kernels = 0;  // kernel calls writing into an operand
  int64_t fused_kernels = 0;    // fused-group member kernels applied in place
  int64_t moved_payloads = 0;   // tuple payloads transferred, not copied
  /// Payload bytes fused-group members never materialized: their results
  /// were written in place over the base's output instead of being
  /// allocated and copied (DESIGN.md §15).
  double fused_bytes_avoided = 0.0;
  int64_t fused_groups = 0;  // fused groups that actually executed
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t pool_bytes_recycled = 0;

  double pool_hit_rate() const {
    int64_t total = pool_hits + pool_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(pool_hits) /
                            static_cast<double>(total);
  }

  std::string ToString() const;
};

/// One exchange stage of a distributed execution: the simulated
/// projection (what the dry pass predicted the exchanges would carry) side
/// by side with what the transport actually measured. For all-dense plans
/// the two agree exactly — tuple counts always, bytes because both sides
/// charge 8 bytes per entry; sparse stages diverge where the estimated
/// sparsity missed the measured one.
struct DistExchangeRecord {
  std::string label;                      // "v3:MmTilesShuffle", ...
  double predicted_shuffle_bytes = 0.0;   // repartition traffic on the wire
  double measured_shuffle_bytes = 0.0;
  double predicted_broadcast_bytes = 0.0;  // replication traffic on the wire
  double measured_broadcast_bytes = 0.0;
  double predicted_tuples = 0.0;  // deliveries incl. worker-local ones
  double measured_tuples = 0.0;
  double shard_skew = 1.0;  // max/mean shard bytes of the stage output
};

/// Measured outcome of the sharded multi-worker runtime (DESIGN.md §12).
/// Empty (num_workers == 0) when the plan ran single-node. All fields
/// except `worker_busy_seconds` are deterministic at any worker count;
/// busy times depend on scheduling (observability only).
struct DistStats {
  int num_workers = 0;
  double bytes_shuffled = 0.0;    // remote repartition bytes, all stages
  double bytes_broadcast = 0.0;   // remote replication bytes, all stages
  double tuples_routed = 0.0;     // deliveries incl. worker-local ones
  int64_t messages = 0;           // transport messages (remote only)
  double max_shard_skew = 1.0;
  std::vector<double> worker_busy_seconds;
  std::vector<DistExchangeRecord> stages;

  /// Per-stage "predicted vs measured" table for EXPLAIN output.
  std::string ComparisonTable() const;
  std::string ToString() const;
};

/// Logical-rewrite provenance of the plan an execution ran (DESIGN.md
/// §16). Populated by planning front-ends (explain) from
/// OptimizeWithRewrites — the executor itself never rewrites. Kept as
/// plain strings/numbers so the engine layer does not depend on
/// core/rewrite. Default state (enabled == false) means the rewriter was
/// off or never consulted.
struct RewriteStats {
  bool enabled = false;
  bool rewritten = false;   // a non-empty chain won the plan search
  bool exact = true;        // every applied step preserves IEEE arithmetic
  bool budget_hit = false;  // enumeration stopped at its saturation budget
  int candidates = 0;       // candidate DAGs costed (incl. the original)
  double baseline_cost = 0.0;  // best fused cost of the unrewritten DAG
  double chosen_cost = 0.0;    // fused cost of the winning DAG
  /// One "rule at vN: sketch" line per applied step, in order.
  std::vector<std::string> chain;

  double CostDelta() const { return baseline_cost - chosen_cost; }
  /// Multi-line EXPLAIN section; empty when !enabled.
  std::string ToString() const;
};

/// Serving-layer counters of the optimizer service (DESIGN.md §17).
/// Populated by src/serve (the engine layer never serves); kept here —
/// like RewriteStats — as plain numbers so explain and the daemon's STATS
/// verb share one rendering. Default state (requests == 0) means the run
/// never went through the service.
struct ServeStats {
  int64_t requests = 0;
  int64_t cache_hits = 0;        // exact-fingerprint plan reuse
  int64_t cache_misses = 0;      // full OptimizeWithRewrites searches
  int64_t cache_evictions = 0;   // LRU entries dropped at the size bound
  int64_t param_hits = 0;        // dimension-only reuse served sans search
  int64_t param_rejects = 0;     // reuse refused (envelope / validation)
  int64_t admission_rejects = 0; // tenant over its concurrent-request cap
  int64_t budget_rejects = 0;    // plan cost over the tenant budget
  double optimize_seconds = 0.0;  // wall-clock spent in plan searches
  double execute_seconds = 0.0;   // wall-clock spent executing plans
  /// Cold-search wall-clock the cache amortized away: the sum, over every
  /// hit, of the search time a missing request would have paid.
  double optimize_seconds_saved = 0.0;

  double hit_rate() const {
    int64_t lookups = cache_hits + param_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits + param_hits) /
                              static_cast<double>(lookups);
  }

  /// Multi-line EXPLAIN/STATS section; empty when requests == 0.
  std::string ToString() const;
};

/// Aggregated outcome of executing one annotated plan on the simulated
/// cluster. `sim_seconds` is the simulated wall-clock time under the
/// machine model; the remaining fields are raw resource totals.
struct ExecStats {
  double sim_seconds = 0.0;
  double flops = 0.0;
  double net_bytes = 0.0;
  double tuples = 0.0;
  double peak_worker_mem_bytes = 0.0;
  double peak_worker_spill_bytes = 0.0;
  MemoryStats memory;

  struct StageRecord {
    std::string label;
    double seconds = 0.0;
    /// Measured local-kernel activity while this stage executed (data
    /// mode only; all-zero in dry runs). Flop/byte tallies are
    /// shape-derived and deterministic; kernel_seconds is wall-clock
    /// (observability only, like the pool counters).
    double kernel_flops = 0.0;
    double kernel_bytes = 0.0;
    double kernel_seconds = 0.0;
    /// Local memory traffic attributed to this stage (same deterministic
    /// tallies as MemoryStats, sliced per stage so fused and unfused
    /// stages are separately attributable).
    double mem_bytes_copied = 0.0;
    double mem_bytes_moved = 0.0;
    double mem_fused_bytes_avoided = 0.0;
    int64_t mem_fused_kernels = 0;
  };
  std::vector<StageRecord> stages;

  /// Measured local-kernel totals over the whole execution (roofline
  /// accounting, DESIGN.md §13). All-zero for dry runs.
  KernelCounters kernels;

  /// Distributed-runtime measurements; default-empty for single-node runs.
  DistStats dist;

  /// Logical-rewrite provenance; default-empty unless a planning
  /// front-end ran OptimizeWithRewrites and filled it in.
  RewriteStats rewrite;

  /// Optimizer-service counters; default-empty unless the run was served
  /// by src/serve (DESIGN.md §17).
  ServeStats serve;

  std::string ToString() const;

  /// Human-readable roofline view of `kernels`: arithmetic intensity and
  /// achieved FLOPS of the GEMM and element-wise paths, and the LU
  /// inverse's 2n^3 charge with its achieved FLOPS. Empty when no
  /// kernel activity was recorded (e.g. dry runs).
  std::string RooflineString() const;
};

/// Accounts one relational operator stage: per-worker compute, network,
/// and disk, plus global tuple counts. `Commit` converts the tallies into
/// simulated seconds (workers proceed in parallel within a stage; the
/// stage ends when the slowest worker finishes) and enforces the memory
/// and spill budgets, reproducing the paper's "Fail" behaviour.
class StageAccountant {
 public:
  StageAccountant(const ClusterConfig& cluster, ExecStats* stats,
                  std::string label);

  void AddFlops(int worker, double flops);
  /// Arithmetic offloaded to the worker's accelerator.
  void AddGpuFlops(int worker, double flops);
  /// Host<->device transfer bytes (PCIe).
  void AddPcie(int worker, double bytes);
  void AddNet(int worker, double sent_bytes);
  void AddDisk(int worker, double bytes);
  void AddTuples(double count);
  /// RAM a worker holds for the whole stage — broadcast replicas, hash
  /// aggregation state, whole single-tuple operands (accumulates).
  void AddWorkerMem(int worker, double bytes);
  /// Transient per-tuple working set; the stage needs the maximum, not the
  /// sum, since tuples stream through one at a time.
  void PeakWorkerMem(int worker, double bytes);
  /// Shuffle-intermediate bytes a worker must spill to disk (accumulates).
  void AddWorkerSpill(int worker, double bytes);

  /// Convenience: broadcast `bytes` held by `owner` to every worker.
  void Broadcast(int owner, double bytes);

  /// Finalizes the stage. Returns OutOfMemory when a worker's resident or
  /// spill footprint exceeds the cluster budget.
  Status Commit();

 private:
  const ClusterConfig& cluster_;
  ExecStats* stats_;
  std::string label_;
  std::vector<double> flops_;
  std::vector<double> gpu_flops_;
  std::vector<double> pcie_;
  std::vector<double> net_;
  std::vector<double> disk_;
  std::vector<double> mem_;
  std::vector<double> work_mem_;
  std::vector<double> spill_;
  double tuples_ = 0.0;
  bool committed_ = false;
};

}  // namespace matopt

#endif  // MATOPT_ENGINE_EXEC_STATS_H_
