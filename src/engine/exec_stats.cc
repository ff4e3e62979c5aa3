#include "engine/exec_stats.h"

#include <algorithm>
#include <sstream>

#include "common/units.h"
#include "la/simd.h"

namespace matopt {

std::string MemoryStats::ToString() const {
  std::ostringstream out;
  out << "copied " << FormatBytes(bytes_copied) << ", moved "
      << FormatBytes(bytes_moved) << ", allocs avoided " << allocs_avoided
      << ", in-place " << inplace_kernels << ", fused " << fused_kernels
      << ", pool hit rate " << static_cast<int>(pool_hit_rate() * 100.0 + 0.5)
      << "% (" << FormatBytes(static_cast<double>(pool_bytes_recycled))
      << " recycled)";
  if (fused_groups > 0) {
    out << ", fusion avoided " << FormatBytes(fused_bytes_avoided) << " in "
        << fused_groups << " group" << (fused_groups == 1 ? "" : "s");
  }
  return out.str();
}

std::string ExecStats::ToString() const {
  std::ostringstream out;
  out << "sim time " << FormatHms(sim_seconds) << ", flops " << flops
      << ", net " << FormatBytes(net_bytes) << ", tuples " << tuples
      << ", peak mem/worker " << FormatBytes(peak_worker_mem_bytes);
  if (dist.num_workers > 0) out << "; " << dist.ToString();
  if (serve.requests > 0) out << "\n" << serve.ToString();
  return out.str();
}

std::string ServeStats::ToString() const {
  if (requests == 0) return "";
  std::ostringstream out;
  out << "serve: " << requests << " request" << (requests == 1 ? "" : "s")
      << ", cache " << cache_hits << " hit" << (cache_hits == 1 ? "" : "s")
      << " / " << param_hits << " param / " << cache_misses << " miss / "
      << cache_evictions << " evicted ("
      << static_cast<int>(hit_rate() * 100.0 + 0.5) << "% hit rate)\n";
  if (param_rejects > 0) {
    out << "  param reuse rejected " << param_rejects << " time"
        << (param_rejects == 1 ? "" : "s") << " (envelope/validation)\n";
  }
  if (admission_rejects > 0 || budget_rejects > 0) {
    out << "  rejected: " << admission_rejects << " admission, "
        << budget_rejects << " budget\n";
  }
  out << "  latency: optimize " << FormatMs(optimize_seconds) << ", execute "
      << FormatMs(execute_seconds) << ", search amortized "
      << FormatMs(optimize_seconds_saved) << " saved";
  if (optimize_seconds + optimize_seconds_saved > 0.0) {
    out << " ("
        << static_cast<int>(100.0 * optimize_seconds_saved /
                                (optimize_seconds + optimize_seconds_saved) +
                            0.5)
        << "% of total search latency)";
  }
  out << "\n";
  return out.str();
}

std::string RewriteStats::ToString() const {
  if (!enabled) return "";
  std::ostringstream out;
  out << "logical rewriter: " << candidates << " candidate DAG"
      << (candidates == 1 ? "" : "s");
  if (budget_hit) out << " (saturation budget hit)";
  out << "\n";
  if (!rewritten) {
    out << "  chosen: original DAG (no rewrite beat cost " << baseline_cost
        << ")\n";
    return out.str();
  }
  out << "  chosen: rewritten DAG (" << (exact ? "exact" : "reassociating")
      << " chain), cost " << baseline_cost << " -> " << chosen_cost
      << " (delta " << CostDelta() << ")\n";
  for (const std::string& step : chain) {
    out << "  rewrite: " << step << "\n";
  }
  return out.str();
}

std::string ExecStats::RooflineString() const {
  const int64_t calls =
      kernels.gemm_calls + kernels.elem_calls + kernels.inverse_calls;
  if (calls == 0) return "";
  std::ostringstream out;
  out << "local kernel roofline (" << SimdIsaName() << " path on "
      << kernels.gemm_simd_calls + kernels.elem_simd_calls +
             kernels.inverse_simd_calls
      << "/" << calls << " calls):\n";
  if (kernels.gemm_calls > 0) {
    out << "  gemm: " << FormatFlops(kernels.gemm_flops) << " over "
        << FormatBytes(kernels.gemm_bytes) << " ("
        << FormatIntensity(kernels.gemm_flops /
                           std::max(1.0, kernels.gemm_bytes))
        << ")";
    if (kernels.gemm_seconds > 0.0) {
      out << ", achieved "
          << FormatFlopRate(kernels.gemm_flops / kernels.gemm_seconds)
          << " in " << kernels.gemm_calls << " calls";
    }
    out << "\n";
  }
  if (kernels.elem_calls > 0) {
    out << "  elementwise: " << FormatFlops(kernels.elem_flops) << " over "
        << FormatBytes(kernels.elem_bytes) << " ("
        << FormatIntensity(kernels.elem_flops /
                           std::max(1.0, kernels.elem_bytes))
        << "), " << kernels.elem_calls << " calls\n";
  }
  if (kernels.inverse_calls > 0) {
    out << "  inverse: " << FormatFlops(kernels.inverse_flops);
    if (kernels.inverse_seconds > 0.0) {
      out << ", achieved "
          << FormatFlopRate(kernels.inverse_flops / kernels.inverse_seconds);
    }
    out << " in " << kernels.inverse_calls << " calls\n";
  }
  return out.str();
}

std::string DistStats::ToString() const {
  std::ostringstream out;
  out << "dist " << num_workers << " workers: shuffled "
      << FormatBytes(bytes_shuffled) << ", broadcast "
      << FormatBytes(bytes_broadcast) << ", routed " << tuples_routed
      << " tuples (" << messages << " messages), max skew " << max_shard_skew;
  return out.str();
}

std::string DistStats::ComparisonTable() const {
  std::ostringstream out;
  out << "distributed exchanges (" << num_workers
      << " workers, predicted | measured):\n";
  for (const DistExchangeRecord& s : stages) {
    out << "  " << s.label << ": shuffle "
        << FormatBytes(s.predicted_shuffle_bytes) << " | "
        << FormatBytes(s.measured_shuffle_bytes) << ", broadcast "
        << FormatBytes(s.predicted_broadcast_bytes) << " | "
        << FormatBytes(s.measured_broadcast_bytes) << ", tuples "
        << s.predicted_tuples << " | " << s.measured_tuples << ", skew "
        << s.shard_skew << "\n";
  }
  out << "  total: shuffled " << FormatBytes(bytes_shuffled)
      << ", broadcast " << FormatBytes(bytes_broadcast) << ", routed "
      << tuples_routed << " tuples, max skew " << max_shard_skew;
  return out.str();
}

StageAccountant::StageAccountant(const ClusterConfig& cluster,
                                 ExecStats* stats, std::string label)
    : cluster_(cluster),
      stats_(stats),
      label_(std::move(label)),
      flops_(cluster.num_workers, 0.0),
      gpu_flops_(cluster.num_workers, 0.0),
      pcie_(cluster.num_workers, 0.0),
      net_(cluster.num_workers, 0.0),
      disk_(cluster.num_workers, 0.0),
      mem_(cluster.num_workers, 0.0),
      work_mem_(cluster.num_workers, 0.0),
      spill_(cluster.num_workers, 0.0) {}

void StageAccountant::AddFlops(int worker, double flops) {
  flops_[worker] += flops;
}
void StageAccountant::AddGpuFlops(int worker, double flops) {
  gpu_flops_[worker] += flops;
}
void StageAccountant::AddPcie(int worker, double bytes) {
  pcie_[worker] += bytes;
}
void StageAccountant::AddNet(int worker, double sent_bytes) {
  net_[worker] += sent_bytes;
}
void StageAccountant::AddDisk(int worker, double bytes) {
  disk_[worker] += bytes;
}
void StageAccountant::AddTuples(double count) { tuples_ += count; }
void StageAccountant::AddWorkerMem(int worker, double bytes) {
  mem_[worker] += bytes;
}
void StageAccountant::PeakWorkerMem(int worker, double bytes) {
  work_mem_[worker] = std::max(work_mem_[worker], bytes);
}
void StageAccountant::AddWorkerSpill(int worker, double bytes) {
  spill_[worker] += bytes;
}

void StageAccountant::Broadcast(int owner, double bytes) {
  // Tree/pipelined broadcast: every worker relays the payload once, so the
  // stage costs ~bytes of network time per worker rather than serializing
  // (K-1) sends through the owner's NIC.
  (void)owner;
  for (int w = 0; w < cluster_.num_workers; ++w) {
    AddNet(w, bytes);
    AddWorkerMem(w, bytes);
  }
}

Status StageAccountant::Commit() {
  committed_ = true;
  double slowest = 0.0;
  double total_flops = 0.0;
  double total_net = 0.0;
  for (int w = 0; w < cluster_.num_workers; ++w) {
    double t = flops_[w] / cluster_.flops_per_sec +
               gpu_flops_[w] / cluster_.gpu_flops_per_sec +
               pcie_[w] / cluster_.pcie_bytes_per_sec +
               net_[w] / cluster_.net_bytes_per_sec +
               disk_[w] / cluster_.disk_bytes_per_sec;
    total_flops += gpu_flops_[w];
    slowest = std::max(slowest, t);
    total_flops += flops_[w];
    total_net += net_[w];
  }
  double seconds = cluster_.per_op_latency_sec + slowest +
                   tuples_ * cluster_.per_tuple_overhead_sec /
                       static_cast<double>(cluster_.num_workers);
  stats_->sim_seconds += seconds;
  stats_->flops += total_flops;
  stats_->net_bytes += total_net;
  stats_->tuples += tuples_;
  ExecStats::StageRecord record;
  record.label = label_;
  record.seconds = seconds;
  stats_->stages.push_back(std::move(record));

  for (int w = 0; w < cluster_.num_workers; ++w) {
    double ram = mem_[w] + work_mem_[w];
    stats_->peak_worker_mem_bytes =
        std::max(stats_->peak_worker_mem_bytes, ram);
    stats_->peak_worker_spill_bytes =
        std::max(stats_->peak_worker_spill_bytes, spill_[w]);
    if (ram > cluster_.worker_mem_bytes) {
      return Status::OutOfMemory(label_ + ": worker " + std::to_string(w) +
                                 " needs " + std::to_string(ram) +
                                 " bytes of RAM");
    }
    if (spill_[w] > cluster_.worker_spill_bytes) {
      return Status::OutOfMemory(label_ + ": worker " + std::to_string(w) +
                                 " spills " + std::to_string(spill_[w]) +
                                 " bytes of intermediate data");
    }
  }
  return Status::OK();
}

}  // namespace matopt
