// Scalar-vs-SIMD A/B microbenchmark for the dense kernel hot paths
// (DESIGN.md §13). Each case runs the same kernel twice in one process —
// OverrideSimdEnabled(false) then (true) — verifies the two outputs are
// bit-identical, and reports wall-clock plus achieved GFLOPS. Emits
// BENCH_kernels.json next to the human-readable table.
//
// Flags:
//   --quick       smaller shapes, fewer reps; the CI smoke mode
//   --threads N   pool size (default 1: the roofline target is
//                 single-thread microkernel throughput)
//
// The inverse family also memcmps the SIMD output against the textbook
// reference inverse (fuzz::ReferenceInverse): the blocked LU must not move
// a bit.
//
// Exit codes: 0 ok, 1 SIMD GEMM or inverse slower than scalar (perf
// regression), 2 scalar/SIMD outputs not bit-identical, or an inverse not
// bit-identical to the reference (contract violation).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fuzz/reference.h"
#include "la/kernels.h"
#include "la/simd.h"
#include "ml/generators.h"

namespace matopt {
namespace {

struct CaseResult {
  std::string name;
  double flops = 0.0;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  bool bit_identical = false;
};

/// Warm-up run, then best-of-`reps` wall-clock.
double TimeBest(const std::function<void()>& run, int reps) {
  run();  // faults pages, fills the buffer pool
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    run();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Times `run` under both kernel paths; `out` must hold the kernel's full
/// output after every call so the paths can be compared bit-for-bit.
CaseResult RunCase(const std::string& name, double flops, int reps,
                   const DenseMatrix* out, const std::function<void()>& run) {
  CaseResult result;
  result.name = name;
  result.flops = flops;

  OverrideSimdEnabled(false);
  result.scalar_seconds = TimeBest(run, reps);
  DenseMatrix scalar_out = *out;

  OverrideSimdEnabled(true);
  result.simd_seconds = TimeBest(run, reps);
  ClearSimdOverride();

  result.bit_identical =
      scalar_out.size() == out->size() &&
      std::memcmp(scalar_out.data(), out->data(),
                  sizeof(double) * static_cast<size_t>(out->size())) == 0;
  return result;
}

void PrintRow(const CaseResult& r) {
  std::printf("%-24s %9.4fs %7.2f GF/s %9.4fs %7.2f GF/s  %5.2fx  %s\n",
              r.name.c_str(), r.scalar_seconds,
              r.flops / r.scalar_seconds / 1e9, r.simd_seconds,
              r.flops / r.simd_seconds / 1e9,
              r.scalar_seconds / r.simd_seconds,
              r.bit_identical ? "bit-identical" : "MISMATCH");
}

void WriteJson(const std::vector<CaseResult>& results, int threads) {
  const std::string json_path = BenchOutputPath("BENCH_kernels.json");
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"isa\": \"%s\",\n  \"threads\": %d,\n",
               SimdCompiled() && SimdSupportedByCpu() ? "avx2" : "scalar",
               threads);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"flops\": %.0f, "
                 "\"scalar_seconds\": %.6f, \"simd_seconds\": %.6f, "
                 "\"scalar_gflops\": %.3f, \"simd_gflops\": %.3f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 r.name.c_str(), r.flops, r.scalar_seconds, r.simd_seconds,
                 r.flops / r.scalar_seconds / 1e9,
                 r.flops / r.simd_seconds / 1e9,
                 r.scalar_seconds / r.simd_seconds,
                 r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
}

int Main(int argc, char** argv) {
  bool quick = false;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoi(argv[++i]);
  }
  ThreadPool::SetDefaultThreads(threads);

  if (!SimdCompiled() || !SimdSupportedByCpu()) {
    // Scalar-only build or CPU: the A/B is vacuous. Succeed, so the CI
    // gate only bites where the SIMD path actually exists.
    std::printf("SIMD path unavailable (%s); nothing to A/B\n",
                SimdCompiled() ? "cpu lacks avx2" : "not compiled in");
    WriteJson({}, threads);
    return 0;
  }

  const int reps = quick ? 2 : 3;
  std::vector<CaseResult> results;
  std::printf("%-24s %10s %13s %9s %13s %8s\n", "case", "scalar", "",
              "simd", "", "speedup");

  const std::vector<int64_t> gemm_sizes =
      quick ? std::vector<int64_t>{256, 512}
            : std::vector<int64_t>{256, 512, 1024};
  for (int64_t s : gemm_sizes) {
    DenseMatrix a = GaussianMatrix(s, s, 1);
    DenseMatrix b = GaussianMatrix(s, s, 2);
    DenseMatrix c(s, s);
    results.push_back(RunCase(
        "gemm_" + std::to_string(s), 2.0 * s * s * s, reps, &c, [&]() {
          std::fill(c.data(), c.data() + c.size(), 0.0);
          GemmAccumulate(a, b, &c);
        }));
    PrintRow(results.back());
  }

  {
    // Tall-skinny: exercises the GemmRowGrain fan-out cap and the column
    // tail (n = 12 -> one 8-wide panel + 4 scalar tail columns).
    const int64_t m = quick ? 8192 : 32768;
    const int64_t k = 96, n = 12;
    DenseMatrix a = GaussianMatrix(m, k, 3);
    DenseMatrix b = GaussianMatrix(k, n, 4);
    DenseMatrix c(m, n);
    results.push_back(
        RunCase("gemm_tall_" + std::to_string(m) + "x96x12", 2.0 * m * k * n,
                reps, &c, [&]() {
                  std::fill(c.data(), c.data() + c.size(), 0.0);
                  GemmAccumulate(a, b, &c);
                }));
    PrintRow(results.back());
  }

  {
    const int64_t s = quick ? 512 : 1024;
    DenseMatrix a = GaussianMatrix(s, s, 5);
    DenseMatrix b = GaussianMatrix(s, s, 6);
    DenseMatrix vec = GaussianMatrix(1, s, 7);
    DenseMatrix out(s, s);
    const std::string sz = std::to_string(s);
    const double elems = static_cast<double>(s) * s;
    results.push_back(RunCase("add_" + sz, elems, reps, &out,
                              [&]() { AddInto(a, b, &out); }));
    PrintRow(results.back());
    results.push_back(RunCase("bias_relu_" + sz, 2.0 * elems, reps, &out,
                              [&]() { BiasReluInto(a, vec, &out); }));
    PrintRow(results.back());
    results.push_back(RunCase("relu_grad_hadamard_" + sz, 2.0 * elems, reps,
                              &out, [&]() {
                                ReluGradHadamardInto(
                                    a, b, b, /*other_is_lhs=*/false, &out);
                              }));
    PrintRow(results.back());
  }

  const std::vector<int64_t> inverse_sizes =
      quick ? std::vector<int64_t>{256} : std::vector<int64_t>{256, 512, 1024};
  for (int64_t s : inverse_sizes) {
    const DenseMatrix a = GaussianMatrix(s, s, 8);
    DenseMatrix inv;
    results.push_back(RunCase("inverse_" + std::to_string(s),
                              2.0 * s * s * s, reps, &inv,
                              [&]() { inv = Inverse(a).value(); }));
    const DenseMatrix ref = fuzz::ReferenceInverse(a).value();
    results.back().bit_identical =
        results.back().bit_identical &&
        std::memcmp(ref.data(), inv.data(),
                    sizeof(double) * static_cast<size_t>(ref.size())) == 0;
    PrintRow(results.back());
  }

  WriteJson(results, threads);

  int rc = 0;
  for (const CaseResult& r : results) {
    if (!r.bit_identical) {
      std::fprintf(stderr, "FAIL: %s outputs differ\n", r.name.c_str());
      rc = 2;
    }
    // Regression gate: the vectorized GEMM and inverse must never lose to
    // the scalar kernels they replace.
    const bool gated =
        r.name.rfind("gemm_", 0) == 0 || r.name.rfind("inverse_", 0) == 0;
    if (gated && r.simd_seconds > r.scalar_seconds) {
      std::fprintf(stderr,
                   "FAIL: %s simd (%.4fs) slower than scalar (%.4fs)\n",
                   r.name.c_str(), r.simd_seconds, r.scalar_seconds);
      rc = std::max(rc, 1);
    }
  }
  return rc;
}

}  // namespace
}  // namespace matopt

int main(int argc, char** argv) { return matopt::Main(argc, argv); }
