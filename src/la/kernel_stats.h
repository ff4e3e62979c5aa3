#ifndef MATOPT_LA_KERNEL_STATS_H_
#define MATOPT_LA_KERNEL_STATS_H_

#include <cstdint>

namespace matopt {

/// Process-wide counters of the *measured* work the local LA kernels
/// performed: useful flops (shape-derived, path-independent), the bytes a
/// kernel must stream assuming cold operands, and wall-clock seconds
/// inside the GEMM hot path. The executor snapshots these around every
/// stage to report per-stage arithmetic intensity and achieved FLOPS
/// (DESIGN.md §13) — the roofline view next to the cost model's simulated
/// flops.
///
/// flop/byte/call tallies are shape-derived and identical on every kernel
/// path (scalar or SIMD, any thread count); `gemm_seconds` and
/// `inverse_seconds` are wall-clock and observability-only, like the
/// BufferPool counters. The GEMM tallies count caller GEMMs only: the
/// trailing updates inside Inverse are part of its own tally.
struct KernelCounters {
  double gemm_flops = 0.0;    // 2*m*k*n per GemmAccumulate
  double gemm_bytes = 0.0;    // A + B read, C read+written
  double gemm_seconds = 0.0;  // wall-clock inside GemmAccumulate
  int64_t gemm_calls = 0;
  int64_t gemm_simd_calls = 0;  // calls that took the vectorized path
  double elem_flops = 0.0;      // element-wise map/zip/epilogue flops
  double elem_bytes = 0.0;
  int64_t elem_calls = 0;
  int64_t elem_simd_calls = 0;
  double inverse_flops = 0.0;    // 2*n^3 per Inverse, the executor's charge
  double inverse_seconds = 0.0;  // wall-clock inside Inverse
  int64_t inverse_calls = 0;
  int64_t inverse_simd_calls = 0;
};

/// Monotonic snapshot of the process-wide tallies.
KernelCounters KernelCountersSnapshot();

/// Difference of two snapshots (after - before), for per-stage deltas.
KernelCounters KernelCountersDelta(const KernelCounters& before,
                                   const KernelCounters& after);

/// Internal tally hooks used by the kernels.
namespace kernel_stats_internal {
void AddGemm(double flops, double bytes, double seconds, bool simd);
void AddElem(double flops, double bytes, bool simd);
void AddInverse(double flops, double seconds, bool simd);
}  // namespace kernel_stats_internal

}  // namespace matopt

#endif  // MATOPT_LA_KERNEL_STATS_H_
