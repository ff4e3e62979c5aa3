// Dispatch-boundary tests for the vectorized kernels (DESIGN.md §13):
// the scalar and SIMD paths must produce bit-identical results on every
// shape — edge tiles, strided outputs, special values — at any thread
// count, and the grain policy and roofline counters must follow their
// contracts. All SIMD-vs-scalar assertions self-skip on builds/CPUs
// without the vectorized path (the A/B would be scalar vs scalar). The
// blocked LU inverse is held to the textbook reference inverse instead,
// so its tests run on every build.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/exec_stats.h"
#include "fuzz/reference.h"
#include "la/dense_matrix.h"
#include "la/kernel_grain.h"
#include "la/kernel_stats.h"
#include "la/kernels.h"
#include "la/kernels_simd.h"
#include "la/simd.h"
#include "ml/generators.h"

namespace matopt {
namespace {

bool SimdAvailable() { return SimdCompiled() && SimdSupportedByCpu(); }

bool BitEq(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

/// Restores the SIMD override and thread count on scope exit.
class KnobGuard {
 public:
  KnobGuard() : saved_threads_(ThreadPool::DefaultThreads()) {}
  ~KnobGuard() {
    ClearSimdOverride();
    ThreadPool::SetDefaultThreads(saved_threads_);
  }

 private:
  int saved_threads_;
};

/// C += A * B through the public dispatch with the SIMD path forced
/// on/off; C starts from `seed_c` so the accumulate order is exercised.
DenseMatrix RunGemm(const DenseMatrix& a, const DenseMatrix& b,
                    const DenseMatrix& seed_c, bool simd) {
  DenseMatrix c = seed_c;
  OverrideSimdEnabled(simd);
  GemmAccumulate(a, b, &c);
  ClearSimdOverride();
  return c;
}

TEST(SimdGemmTest, BlockedKernelBitIdenticalOnEdgeShapes) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD path in this build/CPU";
  KnobGuard guard;
  // m around the 6-row microkernel and 96-row block edges, k around the
  // 256-deep packing block, n around the 8-col panel (n % 8 tails).
  const int64_t shapes[][3] = {
      {1, 1, 8},    {1, 7, 9},    {5, 3, 16},   {6, 256, 8},  {7, 257, 24},
      {11, 4, 12},  {95, 31, 40}, {96, 256, 33}, {97, 300, 8}, {13, 1, 15},
      {192, 513, 23}, {100, 64, 100}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    SCOPED_TRACE("shape " + std::to_string(m) + "x" + std::to_string(k) +
                 "x" + std::to_string(n));
    DenseMatrix a = GaussianMatrix(m, k, 1);
    DenseMatrix b = GaussianMatrix(k, n, 2);
    DenseMatrix seed_c = GaussianMatrix(m, n, 3);

    // Scalar reference through the public kernel...
    DenseMatrix scalar = RunGemm(a, b, seed_c, /*simd=*/false);
    // ...vs the blocked microkernel invoked directly, bypassing the
    // dispatch thresholds so even sub-threshold shapes are covered.
    DenseMatrix simd = seed_c;
    simdk::GemmAccumulateBlocked(a, b, simd.data(), simd.cols());
    EXPECT_TRUE(BitEq(scalar, simd));

    // And via the dispatcher (may or may not take the SIMD path; either
    // way the result must not change).
    EXPECT_TRUE(BitEq(scalar, RunGemm(a, b, seed_c, /*simd=*/true)));
  }
}

TEST(SimdGemmTest, DispatchBitIdenticalAcrossThreadCounts) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD path in this build/CPU";
  KnobGuard guard;
  DenseMatrix a = GaussianMatrix(211, 130, 4);
  DenseMatrix b = GaussianMatrix(130, 57, 5);
  DenseMatrix seed_c = GaussianMatrix(211, 57, 6);
  ThreadPool::SetDefaultThreads(1);
  const DenseMatrix base = RunGemm(a, b, seed_c, /*simd=*/false);
  for (int threads : {1, 2, 5, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::SetDefaultThreads(threads);
    EXPECT_TRUE(BitEq(base, RunGemm(a, b, seed_c, /*simd=*/false)));
    EXPECT_TRUE(BitEq(base, RunGemm(a, b, seed_c, /*simd=*/true)));
  }
}

TEST(SimdGemmTest, ShardStyleStridedOutputBitIdenticalAtWorkerCounts) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD path in this build/CPU";
  KnobGuard guard;
  // The tuple-compute table's strip matmuls write each worker's rows
  // through a strided DenseBlockView of the concatenated output. Emulate that
  // row partition at the dist worker counts and require bit-identity
  // with the unsharded scalar result.
  const int64_t m = 97, k = 64, n = 21;
  DenseMatrix a = GaussianMatrix(m, k, 7);
  DenseMatrix b = GaussianMatrix(k, n, 8);
  DenseMatrix base(m, n);
  OverrideSimdEnabled(false);
  GemmAccumulate(a, b, &base);
  for (int workers : {1, 2, 4, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DenseMatrix c(m, n);
    OverrideSimdEnabled(true);
    int64_t row = 0;
    for (int w = 0; w < workers; ++w) {
      const int64_t rows_w = m / workers + (w < m % workers ? 1 : 0);
      if (rows_w == 0) continue;
      DenseMatrix a_shard(rows_w, k);
      for (int64_t r = 0; r < rows_w; ++r) {
        std::memcpy(a_shard.row(r), a.row(row + r), sizeof(double) * k);
      }
      GemmAccumulate(a_shard, b, c.MutableBlock(row, 0, rows_w, n));
      row += rows_w;
    }
    ClearSimdOverride();
    EXPECT_TRUE(BitEq(base, c));
  }
}

TEST(SimdGemmTest, MostlyZeroLhsStaysBitIdentical) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD path in this build/CPU";
  KnobGuard guard;
  // >87.5% zeros routes to the scalar zero-skip path on both settings;
  // the dispatch decision must never leak into the numbers.
  DenseMatrix a(64, 80);
  a(3, 7) = 1.5;
  a(60, 79) = -2.25;
  DenseMatrix b = GaussianMatrix(80, 40, 9);
  DenseMatrix seed_c = GaussianMatrix(64, 40, 10);
  EXPECT_TRUE(BitEq(RunGemm(a, b, seed_c, false), RunGemm(a, b, seed_c, true)));
}

TEST(SimdElementwiseTest, AllOpsBitIdenticalIncludingSpecialValues) {
  if (!SimdAvailable()) GTEST_SKIP() << "no SIMD path in this build/CPU";
  KnobGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // 7x19 = 133 elements: not a multiple of the 4-wide vector, so the
  // scalar tail runs too.
  DenseMatrix x = GaussianMatrix(7, 19, 11);
  DenseMatrix y = GaussianMatrix(7, 19, 12);
  x(0, 0) = -0.0; x(0, 1) = 0.0; x(0, 2) = nan; x(0, 3) = -inf;
  x(0, 4) = std::numeric_limits<double>::denorm_min();
  y(1, 0) = -0.0; y(1, 1) = nan; y(1, 2) = inf; y(1, 3) = 0.0;
  DenseMatrix vec = GaussianMatrix(1, 19, 13);
  vec(0, 5) = nan;

  auto check = [&](const char* name, auto&& run) {
    SCOPED_TRACE(name);
    DenseMatrix a(7, 19), b(7, 19);
    OverrideSimdEnabled(false);
    run(&a);
    OverrideSimdEnabled(true);
    run(&b);
    ClearSimdOverride();
    EXPECT_TRUE(BitEq(a, b));
  };
  check("add", [&](DenseMatrix* out) { AddInto(x, y, out); });
  check("sub", [&](DenseMatrix* out) { SubInto(x, y, out); });
  check("hadamard", [&](DenseMatrix* out) { HadamardInto(x, y, out); });
  check("div", [&](DenseMatrix* out) { ElemDivInto(x, y, out); });
  check("relu", [&](DenseMatrix* out) { ReluInto(x, out); });
  check("relu_grad", [&](DenseMatrix* out) { ReluGradInto(x, y, out); });
  check("scalar_mul", [&](DenseMatrix* out) { ScalarMulInto(x, -1.75, out); });
  check("broadcast_row_add",
        [&](DenseMatrix* out) { BroadcastRowAddInto(x, vec, out); });
  check("bias_relu", [&](DenseMatrix* out) { BiasReluInto(x, vec, out); });
  check("relu_grad_hadamard_lhs", [&](DenseMatrix* out) {
    ReluGradHadamardInto(x, y, y, /*other_is_lhs=*/true, out);
  });
  check("relu_grad_hadamard_rhs", [&](DenseMatrix* out) {
    ReluGradHadamardInto(x, y, y, /*other_is_lhs=*/false, out);
  });
}

TEST(KernelGrainTest, RowGrainCapsFanOutForTallInputs) {
  // Seed policy: wide rows already got grain 1 chunk-per-row; a tall
  // matrix of wide rows must not fan out one dispatch per row.
  const int64_t rows = 1 << 20, cols = 1 << 16;
  const int64_t grain = RowGrain(rows, cols);
  const int64_t chunks = (rows + grain - 1) / grain;
  EXPECT_LE(chunks, kMaxRowChunks);
  // Small shapes keep the seed behaviour exactly.
  EXPECT_EQ(RowGrain(10, 4), kElemGrain / 4);
  EXPECT_EQ(RowGrain(100, 1 << 20), 1);  // 100 rows -> under the cap anyway
}

TEST(KernelGrainTest, GemmRowGrainFixesSmallNTallOverPartitioning) {
  // The regression: m huge, n tiny used to yield a grain of a few rows
  // and tens of thousands of chunk dispatches.
  const int64_t m = 100000, k = 1000, n = 1;
  const int64_t grain = GemmRowGrain(m, k, n);
  EXPECT_LE((m + grain - 1) / grain, kMaxRowChunks);
  // Grain never splits a packed row block.
  EXPECT_GE(grain, kGemmRowBlock);
  EXPECT_EQ(GemmRowGrain(1024, 1024, 1024), kGemmRowBlock);
}

TEST(KernelStatsTest, GemmTallyIsShapeDerived) {
  KnobGuard guard;
  const int64_t m = 20, k = 30, n = 40;
  DenseMatrix a = GaussianMatrix(m, k, 14);
  DenseMatrix b = GaussianMatrix(k, n, 15);
  DenseMatrix c(m, n);
  const KernelCounters before = KernelCountersSnapshot();
  GemmAccumulate(a, b, &c);
  const KernelCounters delta =
      KernelCountersDelta(before, KernelCountersSnapshot());
  EXPECT_EQ(delta.gemm_calls, 1);
  EXPECT_DOUBLE_EQ(delta.gemm_flops, 2.0 * m * k * n);
  EXPECT_DOUBLE_EQ(delta.gemm_bytes, 8.0 * (m * k + k * n + 2.0 * m * n));
  EXPECT_GE(delta.gemm_seconds, 0.0);

  const KernelCounters b2 = KernelCountersSnapshot();
  DenseMatrix out(m, n);
  AddInto(c, c, &out);
  const KernelCounters d2 = KernelCountersDelta(b2, KernelCountersSnapshot());
  EXPECT_EQ(d2.elem_calls, 1);
  EXPECT_DOUBLE_EQ(d2.elem_flops, static_cast<double>(m * n));
}

/// Inputs for the inverse bit-identity tests. Triangular and sparse
/// inputs get a diagonal of n so their inverses stay far from overflow.
DenseMatrix InverseInput(const std::string& kind, int64_t n) {
  DenseMatrix a = GaussianMatrix(n, n, 100 + n);
  if (kind == "gaussian") return a;
  if (kind == "identity") return Identity(n);
  if (kind == "permutation") {
    std::vector<int64_t> p(n);
    for (int64_t i = 0; i < n; ++i) p[i] = i;
    std::shuffle(p.begin(), p.end(), std::mt19937(static_cast<unsigned>(n)));
    DenseMatrix m(n, n);
    for (int64_t i = 0; i < n; ++i) m(i, p[i]) = 1.0;
    return m;
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const bool zero = kind == "upper"   ? j < i
                        : kind == "lower" ? j > i
                        : kind == "sparse" ? i != j && (i * 7 + j * 3) % 5 != 0
                                           : false;
      if (zero) a(i, j) = 0.0;
    }
    if (kind != "neg_zero") a(i, i) += static_cast<double>(n);
  }
  if (kind == "neg_zero") {
    // Rows past the first panel with an all-zero panel-0 prefix get exact
    // zero multipliers; the -0 entries right of the panel are what a dense
    // trailing update would flip to +0.
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i >= 64 && i % 3 == 1 && j < 64) a(i, j) = 0.0;
        if ((i + j) % 4 == 0) a(i, j) = -0.0;
      }
    }
  }
  return a;
}

TEST(InverseTest, BitIdenticalToReferenceAtEveryPoolSizeAndPath) {
  KnobGuard guard;
  for (const char* kind : {"gaussian", "identity", "permutation", "upper",
                           "lower", "sparse", "neg_zero"}) {
    for (int64_t n : {1, 2, 15, 16, 17, 63, 64, 65, 100, 130, 257, 512}) {
      const DenseMatrix a = InverseInput(kind, n);
      const Result<DenseMatrix> ref = fuzz::ReferenceInverse(a);
      for (int threads : {1, 2, 4, 7}) {
        ThreadPool::SetDefaultThreads(threads);
        for (bool simd : {false, true}) {
          SCOPED_TRACE(std::string(kind) + " n=" + std::to_string(n) +
                       " threads=" + std::to_string(threads) +
                       " simd=" + std::to_string(simd));
          OverrideSimdEnabled(simd);
          const Result<DenseMatrix> got = Inverse(a);
          ASSERT_EQ(got.ok(), ref.ok());
          if (ref.ok()) {
            EXPECT_TRUE(BitEq(got.value(), ref.value()));
          } else {
            EXPECT_EQ(got.status().ToString(), ref.status().ToString());
          }
        }
      }
    }
  }
}

TEST(InverseTest, ZeroPivotInALaterPanelIsSingular) {
  KnobGuard guard;
  // A = L * U with dyadic entries, so elimination is exact: |l| <= 1/2
  // keeps every pivot on the diagonal, and u(70, 70) = 0 makes column 70
  // a combination of columns 0..69 whose pivot comes out exactly zero in
  // the second 64-column panel.
  const int64_t n = 100;
  auto build = [&](double u70) {
    DenseMatrix l(n, n), u(n, n);
    for (int64_t i = 0; i < n; ++i) {
      l(i, i) = 1.0;
      u(i, i) = i == 70 ? u70 : 4.0;
      for (int64_t j = 0; j < i; ++j) l(i, j) = ((i * 5 + j) % 5 - 2) * 0.25;
      for (int64_t j = i + 1; j < n; ++j) u(i, j) = (i + 2 * j) % 7 - 3.0;
    }
    return Gemm(l, u);
  };
  const DenseMatrix singular = build(0.0);
  const DenseMatrix regular = build(4.0);
  for (int threads : {1, 4}) {
    ThreadPool::SetDefaultThreads(threads);
    for (bool simd : {false, true}) {
      OverrideSimdEnabled(simd);
      const Result<DenseMatrix> inv = Inverse(singular);
      ASSERT_FALSE(inv.ok());
      EXPECT_EQ(inv.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(inv.status().message(), "Inverse of a singular matrix");
      EXPECT_FALSE(fuzz::ReferenceInverse(singular).ok());
      EXPECT_TRUE(BitEq(Inverse(regular).value(),
                        fuzz::ReferenceInverse(regular).value()));
    }
  }
}

TEST(InverseTest, InternalGemmsAreNotFaultInjected) {
  const DenseMatrix a = GaussianMatrix(130, 130, 31);
  const DenseMatrix ref = fuzz::ReferenceInverse(a).value();
  SetKernelFaultDelta(0.25);
  const Result<DenseMatrix> inv = Inverse(a);
  SetKernelFaultDelta(0.0);
  EXPECT_TRUE(BitEq(inv.value(), ref));
}

TEST(KernelStatsTest, InverseTallyIsItsOwn) {
  KnobGuard guard;
  const int64_t n = 512;
  const DenseMatrix a = GaussianMatrix(n, n, 32);
  const bool simd = SimdEnabled();
  const KernelCounters before = KernelCountersSnapshot();
  ASSERT_TRUE(Inverse(a).ok());
  const KernelCounters delta =
      KernelCountersDelta(before, KernelCountersSnapshot());
  EXPECT_EQ(delta.inverse_calls, 1);
  EXPECT_EQ(delta.inverse_simd_calls, simd ? 1 : 0);
  EXPECT_DOUBLE_EQ(delta.inverse_flops, 2.0 * n * n * n);
  EXPECT_GT(delta.inverse_seconds, 0.0);
  // The trailing-update GEMMs are the inverse's work, not caller GEMMs.
  EXPECT_EQ(delta.gemm_calls, 0);
  EXPECT_EQ(delta.gemm_flops, 0.0);

  ExecStats stats;
  stats.kernels = delta;
  EXPECT_NE(stats.RooflineString().find("  inverse: "), std::string::npos);
}

TEST(SimdControlTest, OverrideWinsOverDefault) {
  KnobGuard guard;
  OverrideSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  EXPECT_STREQ(SimdIsaName(), "scalar");
  if (SimdAvailable()) {
    OverrideSimdEnabled(true);
    EXPECT_TRUE(SimdEnabled());
    EXPECT_STREQ(SimdIsaName(), "avx2");
  } else {
    OverrideSimdEnabled(true);  // forcing on without a path is a no-op
    EXPECT_FALSE(SimdEnabled());
  }
}

}  // namespace
}  // namespace matopt
