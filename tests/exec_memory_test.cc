// Tests for the execution memory layer: buffer-pool recycling, in-place
// and fused kernel bit-equivalence, view accumulation, and bit-identity of
// whole executor runs (payload stealing, in-place kernels, fused chains)
// against freshly allocated sharded outputs at several thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "core/opt/optimizer.h"
#include "engine/executor.h"
#include "la/kernels.h"
#include "ml/generators.h"
#include "ml/workloads.h"

namespace matopt {
namespace {

// ---------------------------------------------------------------------
// Buffer pool.

TEST(BufferPoolTest, AcquireZeroedIsExactlySizedAndZeroFilled) {
  BufferPool& pool = BufferPool::Default();
  std::vector<double> buf = pool.AcquireZeroed(5000);
  ASSERT_EQ(buf.size(), 5000u);
  for (double v : buf) ASSERT_EQ(v, 0.0);
  pool.Release(std::move(buf));
}

TEST(BufferPoolTest, RecyclesReleasedStorageInSameSizeClass) {
  BufferPool& pool = BufferPool::Default();
  BufferPool::ClearThreadCache();
  std::vector<double> buf = pool.AcquireZeroed(5000);
  buf[7] = 42.0;  // dirty it; the next acquire must still see zeros
  const double* storage = buf.data();
  pool.Release(std::move(buf));

  BufferPool::Stats before = pool.snapshot();
  std::vector<double> again = pool.AcquireZeroed(5000);
  BufferPool::Stats after = pool.snapshot();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(again.data(), storage);  // same allocation came back
  for (double v : again) ASSERT_EQ(v, 0.0);
  pool.Release(std::move(again));
  BufferPool::ClearThreadCache();
}

TEST(BufferPoolTest, SizeClassesNeverServeUndersizedBuffers) {
  BufferPool& pool = BufferPool::Default();
  BufferPool::ClearThreadCache();
  // A released buffer of capacity 5000 files under floor-log2 class 12;
  // requests of 5001..8192 file under ceil-log2 class 13 and must miss.
  std::vector<double> small = pool.AcquireZeroed(5000);
  pool.Release(std::move(small));
  std::vector<double> big = pool.AcquireZeroed(8000);
  EXPECT_GE(big.capacity(), 8000u);
  ASSERT_EQ(big.size(), 8000u);
  pool.Release(std::move(big));
  BufferPool::ClearThreadCache();
}

TEST(BufferPoolTest, TinyBuffersBypassThePool) {
  BufferPool& pool = BufferPool::Default();
  BufferPool::Stats before = pool.snapshot();
  std::vector<double> tiny = pool.AcquireZeroed(16);
  pool.Release(std::move(tiny));
  BufferPool::Stats after = pool.snapshot();
  EXPECT_EQ(after.hits - before.hits, 0);
}

TEST(BufferPoolTest, RuntimeOverrideTakesPrecedenceOverEnvironment) {
  BufferPool& pool = BufferPool::Default();
  BufferPool::ClearThreadCache();

  BufferPool::OverrideEnabled(false);
  EXPECT_FALSE(BufferPool::Enabled());
  std::vector<double> buf = pool.AcquireZeroed(5000);
  const BufferPool::Stats before = pool.snapshot();
  pool.Release(std::move(buf));  // dropped, not cached
  std::vector<double> again = pool.AcquireZeroed(5000);
  const BufferPool::Stats after = pool.snapshot();
  EXPECT_EQ(after.hits - before.hits, 0);
  pool.Release(std::move(again));

  BufferPool::OverrideEnabled(true);
  EXPECT_TRUE(BufferPool::Enabled());
  BufferPool::ClearEnabledOverride();
  BufferPool::ClearThreadCache();
}

/// Acquires from one size class until the shared store misses, so the
/// following assertions start from a known-empty pool state. The drained
/// buffers are dropped (freed), not re-released.
void DrainPoolClass(int64_t n) {
  BufferPool& pool = BufferPool::Default();
  BufferPool::ClearThreadCache();
  for (int i = 0; i < 1000; ++i) {
    const BufferPool::Stats before = pool.snapshot();
    std::vector<double> buf = pool.AcquireZeroed(n);
    if (pool.snapshot().misses != before.misses) return;
  }
  FAIL() << "pool class for n=" << n << " did not drain";
}

TEST(BufferPoolTest, CrossThreadReleaseIsServedThroughTheSharedStore) {
  // The executor's steady state: one thread frees dead relations, other
  // threads re-acquire that storage. The per-thread free list holds 4
  // buffers per class, so releasing 6 on a worker thread pushes 2 into
  // the mutex-guarded shared store; the worker's thread-local cache dies
  // with the thread, and the main thread must then hit the shared pair.
  BufferPool::OverrideEnabled(true);
  BufferPool& pool = BufferPool::Default();
  DrainPoolClass(5000);

  std::vector<const double*> released;
  std::thread worker([&] {
    std::vector<std::vector<double>> bufs;
    for (int i = 0; i < 6; ++i) bufs.push_back(pool.AcquireZeroed(5000));
    for (auto& b : bufs) {
      b[3] = 7.0;  // dirty: a recycled acquire must still see zeros
      released.push_back(b.data());
      pool.Release(std::move(b));
    }
  });
  worker.join();

  const BufferPool::Stats before = pool.snapshot();
  std::vector<std::vector<double>> got;
  got.push_back(pool.AcquireZeroed(5000));
  got.push_back(pool.AcquireZeroed(5000));
  const BufferPool::Stats after = pool.snapshot();
  EXPECT_EQ(after.hits - before.hits, 2);
  for (const auto& buf : got) {
    ASSERT_EQ(buf.size(), 5000u);
    for (double v : buf) ASSERT_EQ(v, 0.0);
    bool from_worker = false;
    for (const double* p : released) from_worker = from_worker || p == buf.data();
    EXPECT_TRUE(from_worker) << "buffer not recycled from the worker thread";
  }
  // The worker's 4 thread-local buffers died with its cache: next acquire
  // falls through to malloc.
  const BufferPool::Stats before_miss = pool.snapshot();
  std::vector<double> fresh = pool.AcquireZeroed(5000);
  EXPECT_EQ(pool.snapshot().misses - before_miss.misses, 1);
  pool.Release(std::move(fresh));
  for (auto& buf : got) pool.Release(std::move(buf));
  BufferPool::ClearThreadCache();
  BufferPool::ClearEnabledOverride();
}

TEST(BufferPoolTest, ConcurrentChurnKeepsBuffersZeroedAndCountsSane) {
  // Four threads hammer one size class through the shared store; under
  // -DMATOPT_TSAN this exercises the lock paths for data races. Every
  // acquire must observe a fully zeroed buffer no matter which thread
  // dirtied and released it.
  BufferPool::OverrideEnabled(true);
  BufferPool& pool = BufferPool::Default();
  const BufferPool::Stats before = pool.snapshot();
  std::vector<std::thread> threads;
  std::atomic<int> nonzero_seen{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &nonzero_seen, t] {
      for (int i = 0; i < 200; ++i) {
        std::vector<double> a = pool.AcquireZeroed(3000);
        std::vector<double> b = pool.AcquireZeroed(3000);
        for (double v : a) nonzero_seen += v != 0.0;
        for (double v : b) nonzero_seen += v != 0.0;
        a[i % a.size()] = static_cast<double>(t + 1);
        b[i % b.size()] = static_cast<double>(t + 1);
        pool.Release(std::move(a));
        pool.Release(std::move(b));
      }
      BufferPool::ClearThreadCache();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(nonzero_seen.load(), 0);
  const BufferPool::Stats after = pool.snapshot();
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
            4 * 200 * 2);
  EXPECT_EQ(after.releases - before.releases, 4 * 200 * 2);
  BufferPool::ClearEnabledOverride();
}

// ---------------------------------------------------------------------
// In-place and fused kernels: exact equality with the out-of-place
// compositions, including when the destination aliases an input.

class KernelEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { ThreadPool::SetDefaultThreads(GetParam()); }
  void TearDown() override { ThreadPool::SetDefaultThreads(0); }
};

TEST_P(KernelEquivalenceTest, IntoVariantsMatchOutOfPlaceExactly) {
  DenseMatrix a = GaussianMatrix(173, 211, 1);
  DenseMatrix b = GaussianMatrix(173, 211, 2);

  {
    DenseMatrix dst = a;
    AddInto(a, b, &dst);
    EXPECT_TRUE(dst == Add(a, b));
  }
  {
    DenseMatrix dst = a;
    SubInto(a, b, &dst);
    EXPECT_TRUE(dst == Sub(a, b));
  }
  {
    DenseMatrix dst = a;
    HadamardInto(a, b, &dst);
    EXPECT_TRUE(dst == Hadamard(a, b));
  }
  {
    DenseMatrix dst = a;
    ElemDivInto(a, b, &dst);
    EXPECT_TRUE(dst == ElemDiv(a, b));
  }
  {
    DenseMatrix dst = a;
    ReluGradInto(a, b, &dst);
    EXPECT_TRUE(dst == ReluGrad(a, b));
  }
  {
    DenseMatrix dst = a;
    ScalarMulInto(a, -1.75, &dst);
    EXPECT_TRUE(dst == ScalarMul(a, -1.75));
  }
  {
    DenseMatrix dst = a;
    ReluInto(a, &dst);
    EXPECT_TRUE(dst == Relu(a));
  }
  {
    DenseMatrix dst = a;
    SigmoidInto(a, &dst);
    EXPECT_TRUE(dst == Sigmoid(a));
  }
  {
    DenseMatrix dst = a;
    ExpInto(a, &dst);
    EXPECT_TRUE(dst == Exp(a));
  }
  {
    DenseMatrix dst = a;
    SoftmaxInto(a, &dst);
    EXPECT_TRUE(dst == Softmax(a));
  }
  {
    DenseMatrix vec = GaussianMatrix(1, 211, 3);
    DenseMatrix dst = a;
    BroadcastRowAddInto(a, vec, &dst);
    EXPECT_TRUE(dst == BroadcastRowAdd(a, vec));
  }
}

TEST_P(KernelEquivalenceTest, FusedKernelsMatchTheirCompositions) {
  DenseMatrix a = GaussianMatrix(150, 190, 4);
  DenseMatrix vec = GaussianMatrix(1, 190, 5);
  EXPECT_TRUE(BiasRelu(a, vec) == Relu(BroadcastRowAdd(a, vec)));
  {
    DenseMatrix dst = a;
    BiasReluInto(a, vec, &dst);
    EXPECT_TRUE(dst == Relu(BroadcastRowAdd(a, vec)));
  }

  DenseMatrix z = GaussianMatrix(150, 190, 6);
  DenseMatrix up = GaussianMatrix(150, 190, 7);
  DenseMatrix other = GaussianMatrix(150, 190, 8);
  EXPECT_TRUE(ReluGradHadamard(z, up, other, /*other_is_lhs=*/true) ==
              Hadamard(other, ReluGrad(z, up)));
  EXPECT_TRUE(ReluGradHadamard(z, up, other, /*other_is_lhs=*/false) ==
              Hadamard(ReluGrad(z, up), other));
  {
    DenseMatrix dst = z;
    ReluGradHadamardInto(z, up, other, /*other_is_lhs=*/true, &dst);
    EXPECT_TRUE(dst == Hadamard(other, ReluGrad(z, up)));
  }
}

TEST_P(KernelEquivalenceTest, ViewAccumulationMatchesBlockRoundTrip) {
  DenseMatrix a = GaussianMatrix(90, 130, 9);
  DenseMatrix b0 = GaussianMatrix(130, 70, 10);
  DenseMatrix b1 = GaussianMatrix(130, 50, 11);

  DenseMatrix via_copy(90, 120);
  via_copy.SetBlock(0, 0, Gemm(a, b0));
  via_copy.SetBlock(0, 70, Gemm(a, b1));

  DenseMatrix via_view = DenseMatrix::Pooled(90, 120);
  GemmAccumulate(a, b0, via_view.MutableBlock(0, 0, 90, 70));
  GemmAccumulate(a, b1, via_view.MutableBlock(0, 70, 90, 50));
  EXPECT_TRUE(via_copy == via_view);

  SparseMatrix s = RandomSparse(90, 130, 5.0, 12);
  DenseMatrix sp_copy(90, 120);
  {
    DenseMatrix block = sp_copy.Block(0, 0, 90, 70);
    SpMmAccumulate(s.ColSlice(0, 130), b0, &block);
    sp_copy.SetBlock(0, 0, block);
  }
  DenseMatrix sp_view = DenseMatrix::Pooled(90, 120);
  SpMmAccumulate(s.ColSlice(0, 130), b0, sp_view.MutableBlock(0, 0, 90, 70));
  EXPECT_TRUE(sp_copy == sp_view);
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquivalenceTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------
// Whole-executor bit-identity across thread counts on the paper workloads.
// The reference is a one-worker sharded run: its outputs are freshly
// allocated (no stealing, no in-place kernels, no fused chains), so the
// single-node runs' in-place *Into kernels are checked against fresh ones.

struct ExecOutcome {
  ExecStats stats;
  std::unordered_map<int, DenseMatrix> sinks;
};

ExecOutcome RunWorkload(const ComputeGraph& graph, const Annotation& plan,
                        const Catalog& catalog, const ClusterConfig& cluster,
                        int threads, int dist_workers = 0) {
  ThreadPool::SetDefaultThreads(threads);
  PlanExecutor executor(catalog, cluster);
  executor.set_dist_workers(dist_workers);
  std::unordered_map<int, Relation> relations;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    DenseMatrix m = GaussianMatrix(vx.type.rows(), vx.type.cols(), 400 + v);
    relations[v] = MakeRelation(m, vx.input_format, cluster).value();
  }
  auto result = executor.Execute(graph, plan, std::move(relations));
  ThreadPool::SetDefaultThreads(0);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ExecOutcome outcome;
  outcome.stats = result.value().stats;
  for (const auto& [sink, rel] : result.value().sinks) {
    outcome.sinks.emplace(sink, MaterializeDense(rel).value());
  }
  return outcome;
}

void ExpectBitIdentical(const ComputeGraph& graph, const Catalog& catalog,
                        const ClusterConfig& cluster) {
  CostModel model = CostModel::Analytic(cluster);
  auto plan = Optimize(graph, catalog, model, cluster);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  ExecOutcome reference = RunWorkload(graph, plan.value().annotation, catalog,
                                      cluster, 1, /*dist_workers=*/1);
  ASSERT_FALSE(reference.sinks.empty());
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOutcome run =
        RunWorkload(graph, plan.value().annotation, catalog, cluster, threads);
    ASSERT_EQ(run.sinks.size(), reference.sinks.size());
    for (const auto& [sink, m] : reference.sinks) {
      ASSERT_TRUE(run.sinks.count(sink));
      EXPECT_TRUE(run.sinks.at(sink) == m);
    }
    // The simulated accounting never depends on where payloads live.
    EXPECT_DOUBLE_EQ(run.stats.sim_seconds, reference.stats.sim_seconds);
    EXPECT_DOUBLE_EQ(run.stats.flops, reference.stats.flops);
    EXPECT_DOUBLE_EQ(run.stats.net_bytes, reference.stats.net_bytes);
    EXPECT_DOUBLE_EQ(run.stats.tuples, reference.stats.tuples);
  }
}

class ExecMemoryTest : public ::testing::Test {
 protected:
  Catalog catalog_;
  ClusterConfig cluster_ = SimSqlProfile(4);
  void SetUp() override { cluster_.broadcast_cap_bytes = 1e12; }
};

TEST_F(ExecMemoryTest, FfnnStepBitIdenticalAcrossPathsAndThreads) {
  FfnnConfig cfg;
  cfg.batch = 256;
  cfg.features = 256;
  cfg.hidden = 256;
  cfg.labels = 10;
  auto graph = BuildFfnnGraph(cfg);
  ASSERT_TRUE(graph.ok());
  ExpectBitIdentical(graph.value(), catalog_, cluster_);
}

TEST_F(ExecMemoryTest, BlockInverseBitIdenticalAcrossPathsAndThreads) {
  auto graph = BuildBlockInverseGraph(/*block=*/128);
  ASSERT_TRUE(graph.ok());
  ExpectBitIdentical(graph.value(), catalog_, cluster_);
}

TEST_F(ExecMemoryTest, MatMulChainBitIdenticalAcrossPathsAndThreads) {
  ChainSizes sizes;
  for (auto& d : sizes.dims) d = {128, 128};
  auto graph = BuildMatMulChainGraph(sizes);
  ASSERT_TRUE(graph.ok());
  ExpectBitIdentical(graph.value(), catalog_, cluster_);
}

TEST_F(ExecMemoryTest, ReluGradHadamardFusionFiresAndMatchesKernels) {
  // g = Hadamard(m, ReluGrad(z, up)) with ReluGrad's sole consumer being
  // the Hadamard: the planner must fuse and stay bit-identical.
  GraphBuilder g;
  MatrixType type(200, 300);
  FormatId fmt = BuildFfnnGraph(FfnnConfig{}).value().vertex(0).input_format;
  int z = g.Input(type, fmt, "z");
  int up = g.Input(type, fmt, "up");
  int m = g.Input(type, fmt, "m");
  int rg = g.Op(OpKind::kReluGrad, {z, up}, "rg");
  g.Op(OpKind::kHadamard, {m, rg}, "out");
  auto graph = g.Finish();
  ASSERT_TRUE(graph.ok());

  CostModel model = CostModel::Analytic(cluster_);
  auto plan = Optimize(graph.value(), catalog_, model, cluster_);
  ASSERT_TRUE(plan.ok());

  ExecOutcome fused = RunWorkload(graph.value(), plan.value().annotation,
                                  catalog_, cluster_, 1);
  EXPECT_GT(fused.stats.memory.fused_kernels, 0);
  EXPECT_GT(fused.stats.memory.moved_payloads, 0);
  // Recorded figures: the ReluGrad member runs in place over its dying
  // operand and the Hadamard passes its payload through.
  EXPECT_EQ(fused.stats.memory.bytes_copied, 0.0);
  EXPECT_EQ(fused.stats.memory.bytes_moved, 480000.0);
  EXPECT_EQ(fused.stats.memory.allocs_avoided, 1);

  // Cross-check against the raw kernels.
  DenseMatrix mz = GaussianMatrix(200, 300, 400 + z);
  DenseMatrix mu = GaussianMatrix(200, 300, 400 + up);
  DenseMatrix mm = GaussianMatrix(200, 300, 400 + m);
  DenseMatrix expected = Hadamard(mm, ReluGrad(mz, mu));
  ASSERT_EQ(fused.sinks.size(), 1u);
  EXPECT_TRUE(fused.sinks.begin()->second == expected);
}

TEST_F(ExecMemoryTest, ZeroCopyRunReportsReuseAndPoolTraffic) {
  FfnnConfig cfg;
  cfg.batch = 256;
  cfg.features = 256;
  cfg.hidden = 256;
  cfg.labels = 10;
  auto graph = BuildFfnnGraph(cfg);
  ASSERT_TRUE(graph.ok());
  CostModel model = CostModel::Analytic(cluster_);
  auto plan = Optimize(graph.value(), catalog_, model, cluster_);
  ASSERT_TRUE(plan.ok());

  // The first run warms the pool; the second run recycles.
  RunWorkload(graph.value(), plan.value().annotation, catalog_, cluster_, 1);
  ExecOutcome on = RunWorkload(graph.value(), plan.value().annotation,
                               catalog_, cluster_, 1);

  EXPECT_GT(on.stats.memory.inplace_kernels, 0);
  // Recorded figures of this plan; the memory tallies are shape-derived,
  // so any change means payloads are copied or reused differently.
  EXPECT_EQ(on.stats.memory.bytes_copied, 1572864.0);
  EXPECT_EQ(on.stats.memory.bytes_moved, 1593344.0);
  EXPECT_EQ(on.stats.memory.allocs_avoided, 4);
  if (BufferPool::Enabled()) {
    EXPECT_GT(on.stats.memory.pool_hits, 0);
    EXPECT_GT(on.stats.memory.pool_bytes_recycled, 0);
  }
}

TEST_F(ExecMemoryTest, DryRunProjectsTheSameDeterministicMemoryStats) {
  FfnnConfig cfg;
  cfg.batch = 256;
  cfg.features = 256;
  cfg.hidden = 256;
  cfg.labels = 10;
  auto graph = BuildFfnnGraph(cfg);
  ASSERT_TRUE(graph.ok());
  CostModel model = CostModel::Analytic(cluster_);
  auto plan = Optimize(graph.value(), catalog_, model, cluster_);
  ASSERT_TRUE(plan.ok());

  ThreadPool::SetDefaultThreads(1);
  PlanExecutor executor(catalog_, cluster_);
  auto dry = executor.DryRun(graph.value(), plan.value().annotation);
  ASSERT_TRUE(dry.ok());
  ExecOutcome data = RunWorkload(graph.value(), plan.value().annotation,
                                 catalog_, cluster_, 1);
  // The deterministic fields (not the pool counters) are a projection:
  // dry-run assumes every planned steal succeeds, so its reuse tally
  // bounds data mode from above and its copy tally from below (a steal
  // that fails at run time falls back to a fresh copy).
  EXPECT_LE(dry.value().stats.memory.bytes_copied,
            data.stats.memory.bytes_copied);
  EXPECT_GE(dry.value().stats.memory.allocs_avoided,
            data.stats.memory.allocs_avoided);
  EXPECT_GT(dry.value().stats.memory.allocs_avoided, 0);
  EXPECT_GT(data.stats.memory.allocs_avoided, 0);
}

}  // namespace
}  // namespace matopt
