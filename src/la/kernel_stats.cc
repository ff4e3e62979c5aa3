#include "la/kernel_stats.h"

#include <atomic>

namespace matopt {

namespace {

/// One relaxed atomic add per *kernel call* (not per element), so the
/// counters are far off every inner loop.
struct AtomicCounters {
  std::atomic<double> gemm_flops{0.0};
  std::atomic<double> gemm_bytes{0.0};
  std::atomic<double> gemm_seconds{0.0};
  std::atomic<int64_t> gemm_calls{0};
  std::atomic<int64_t> gemm_simd_calls{0};
  std::atomic<double> elem_flops{0.0};
  std::atomic<double> elem_bytes{0.0};
  std::atomic<int64_t> elem_calls{0};
  std::atomic<int64_t> elem_simd_calls{0};
  std::atomic<double> inverse_flops{0.0};
  std::atomic<double> inverse_seconds{0.0};
  std::atomic<int64_t> inverse_calls{0};
  std::atomic<int64_t> inverse_simd_calls{0};
};

AtomicCounters& Counters() {
  static AtomicCounters counters;
  return counters;
}

void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

KernelCounters KernelCountersSnapshot() {
  const AtomicCounters& c = Counters();
  KernelCounters out;
  out.gemm_flops = c.gemm_flops.load(std::memory_order_relaxed);
  out.gemm_bytes = c.gemm_bytes.load(std::memory_order_relaxed);
  out.gemm_seconds = c.gemm_seconds.load(std::memory_order_relaxed);
  out.gemm_calls = c.gemm_calls.load(std::memory_order_relaxed);
  out.gemm_simd_calls = c.gemm_simd_calls.load(std::memory_order_relaxed);
  out.elem_flops = c.elem_flops.load(std::memory_order_relaxed);
  out.elem_bytes = c.elem_bytes.load(std::memory_order_relaxed);
  out.elem_calls = c.elem_calls.load(std::memory_order_relaxed);
  out.elem_simd_calls = c.elem_simd_calls.load(std::memory_order_relaxed);
  out.inverse_flops = c.inverse_flops.load(std::memory_order_relaxed);
  out.inverse_seconds = c.inverse_seconds.load(std::memory_order_relaxed);
  out.inverse_calls = c.inverse_calls.load(std::memory_order_relaxed);
  out.inverse_simd_calls =
      c.inverse_simd_calls.load(std::memory_order_relaxed);
  return out;
}

KernelCounters KernelCountersDelta(const KernelCounters& before,
                                   const KernelCounters& after) {
  KernelCounters out;
  out.gemm_flops = after.gemm_flops - before.gemm_flops;
  out.gemm_bytes = after.gemm_bytes - before.gemm_bytes;
  out.gemm_seconds = after.gemm_seconds - before.gemm_seconds;
  out.gemm_calls = after.gemm_calls - before.gemm_calls;
  out.gemm_simd_calls = after.gemm_simd_calls - before.gemm_simd_calls;
  out.elem_flops = after.elem_flops - before.elem_flops;
  out.elem_bytes = after.elem_bytes - before.elem_bytes;
  out.elem_calls = after.elem_calls - before.elem_calls;
  out.elem_simd_calls = after.elem_simd_calls - before.elem_simd_calls;
  out.inverse_flops = after.inverse_flops - before.inverse_flops;
  out.inverse_seconds = after.inverse_seconds - before.inverse_seconds;
  out.inverse_calls = after.inverse_calls - before.inverse_calls;
  out.inverse_simd_calls =
      after.inverse_simd_calls - before.inverse_simd_calls;
  return out;
}

namespace kernel_stats_internal {

void AddGemm(double flops, double bytes, double seconds, bool simd) {
  AtomicCounters& c = Counters();
  AtomicAdd(c.gemm_flops, flops);
  AtomicAdd(c.gemm_bytes, bytes);
  AtomicAdd(c.gemm_seconds, seconds);
  c.gemm_calls.fetch_add(1, std::memory_order_relaxed);
  if (simd) c.gemm_simd_calls.fetch_add(1, std::memory_order_relaxed);
}

void AddElem(double flops, double bytes, bool simd) {
  AtomicCounters& c = Counters();
  AtomicAdd(c.elem_flops, flops);
  AtomicAdd(c.elem_bytes, bytes);
  c.elem_calls.fetch_add(1, std::memory_order_relaxed);
  if (simd) c.elem_simd_calls.fetch_add(1, std::memory_order_relaxed);
}

void AddInverse(double flops, double seconds, bool simd) {
  AtomicCounters& c = Counters();
  AtomicAdd(c.inverse_flops, flops);
  AtomicAdd(c.inverse_seconds, seconds);
  c.inverse_calls.fetch_add(1, std::memory_order_relaxed);
  if (simd) c.inverse_simd_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace kernel_stats_internal

}  // namespace matopt
