// Unit tests of the benchmark's own arithmetic and checks: percentiles,
// span self time, seeded inputs and request order, sink comparison and
// the failure tally. Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <unordered_map>

#include "core/ops/catalog.h"
#include "engine/cluster.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "frontend/parser.h"
#include "serve/fingerprint.h"
#include "serve/service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0}, 0.0), 1.0);
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Tail, TakesTheRankWithTenSamplesBeyondIt) {
  TailStat t = Tail(OneTo(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.samples, 100);

  t = Tail(OneTo(1000));
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10);

  t = Tail(OneTo(40));
  EXPECT_DOUBLE_EQ(t.value, 30.0);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
}

TEST(Tail, NeverGoesBelowTheMedian) {
  TailStat t = Tail(OneTo(20));  // rank 10 of 20: exactly the median rank
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10);

  t = Tail(OneTo(6));  // too few samples: the median, with 3 beyond
  EXPECT_DOUBLE_EQ(t.value, 3.5);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 3);

  EXPECT_EQ(Tail({}).samples, 0);
}

TEST(MeanOfGroupMedians, WeighsEveryGroupTheSame) {
  // One group is the median itself.
  EXPECT_DOUBLE_EQ(MeanOfGroupMedians({3.0, 1.0, 2.0}, {0, 0, 0}), 2.0);
  // A slow group counts once however many samples it has: medians 1 and
  // 4, not the median 4 of all five samples.
  EXPECT_DOUBLE_EQ(
      MeanOfGroupMedians({1.0, 4.0, 4.0, 4.0, 4.0}, {0, 2, 2, 2, 2}), 2.5);
  // Unpinned set-ups (-1) form one group like any other.
  EXPECT_DOUBLE_EQ(MeanOfGroupMedians({5.0, 7.0}, {-1, -1}), 6.0);
  EXPECT_DOUBLE_EQ(MeanOfGroupMedians({}, {}), 0.0);
}

Span MakeSpan(int parent, double start, double end) {
  Span s;
  s.name = "s";
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      MakeSpan(-1, 0.0, 10.0),  // 0: root
      MakeSpan(0, 1.0, 3.0),    // 1
      MakeSpan(0, 2.0, 5.0),    // 2: overlaps 1; the union is [1, 5]
      MakeSpan(0, 7.0, 8.0),    // 3
      MakeSpan(2, 2.5, 4.0),    // 4: grandchild, only its parent loses it
      MakeSpan(0, 9.5, 12.0),   // 5: runs past the root; clipped to 0.5
  };
  std::vector<double> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.5);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.5);
  EXPECT_DOUBLE_EQ(self[5], 2.5);
}

TEST(RequestOrder, IsASeededPermutation) {
  for (uint64_t seed : {0ull, 1ull, 42ull}) {
    std::vector<int> order = RequestOrder(seed, 6);
    EXPECT_EQ(order, RequestOrder(seed, 6));
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
  std::set<std::vector<int>> distinct;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    distinct.insert(RequestOrder(seed, 6));
  }
  EXPECT_GT(distinct.size(), 10u);
  EXPECT_TRUE(RequestOrder(7, 0).empty());
}

matopt::ComputeGraph Parse(const std::string& source) {
  auto parsed = matopt::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value().graph;
}

TEST(MakeInputs, SameSeedSameBytes) {
  const matopt::ComputeGraph g = Parse(
      "input A[20, 30] format = single;\n"
      "input B[30, 10] format = single;\n"
      "C = A * B;\noutput C;\n");
  auto a = MakeInputs(g, 5);
  auto b = MakeInputs(g, 5);
  auto c = MakeInputs(g, 6);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a.value().size(), 2u);
  for (const auto& [name, m] : a.value()) {
    const matopt::DenseMatrix& same = b.value().at(name);
    const matopt::DenseMatrix& other = c.value().at(name);
    EXPECT_EQ(std::memcmp(m.data(), same.data(), sizeof(double) * m.size()),
              0);
    EXPECT_NE(std::memcmp(m.data(), other.data(), sizeof(double) * m.size()),
              0);
  }
}

TEST(MakeInputs, RejectsSparseInputs) {
  const matopt::ComputeGraph g = Parse(
      "input X[100, 100] format = sp_csr sparsity = 0.01;\n"
      "Y = X';\noutput Y;\n");
  EXPECT_FALSE(MakeInputs(g, 1).ok());
}

// The cold_plan check recomputes Handle's sink checksums from MakeInputs;
// that only works while both fabricate the same input bytes.
TEST(MakeInputs, MatchesTheServiceInputs) {
  const std::string source =
      "input A[40, 30] format = single;\n"
      "input B[30, 20] format = single;\n"
      "C = relu(A * B);\noutput C;\n";
  matopt::Catalog catalog;
  matopt::ClusterConfig cluster = matopt::SimSqlProfile(10);
  matopt::serve::ServeOptions options;
  matopt::serve::OptimizerService service(catalog, cluster, options);
  matopt::serve::ServeRequest request;
  request.program = source;
  request.execute = true;
  request.input_seed = 77;
  auto response = service.Handle(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().sink_checksums.size(), 1u);

  auto entry = const_cast<matopt::serve::PlanCache&>(service.cache())
                   .Lookup(response.value().key);
  ASSERT_NE(entry, nullptr);
  auto named = MakeInputs(entry->graph, 77);
  ASSERT_TRUE(named.ok());
  std::unordered_map<int, matopt::Relation> inputs;
  for (int v = 0; v < entry->graph.num_vertices(); ++v) {
    const matopt::Vertex& vx = entry->graph.vertex(v);
    if (vx.op != matopt::OpKind::kInput) continue;
    auto rel = matopt::MakeRelation(named.value().at(vx.name),
                                    vx.input_format, cluster);
    ASSERT_TRUE(rel.ok());
    inputs.emplace(v, std::move(rel).value());
  }
  matopt::PlanExecutor executor(catalog, cluster);
  executor.set_dist_workers(0);
  auto run = executor.Execute(entry->graph, entry->plan.annotation,
                              std::move(inputs));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().sinks.size(), 1u);
  auto dense = matopt::MaterializeDense(run.value().sinks.begin()->second);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(matopt::serve::DenseChecksum(dense.value().data(),
                                         dense.value().size()),
            response.value().sink_checksums[0].second);
}

SinkSet TwoSinks() {
  SinkSet sinks;
  matopt::DenseMatrix a(3, 4);
  matopt::DenseMatrix b(2, 2);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = 0.5 * i - 1.0;
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = 3.0 + i;
  sinks.emplace("A", a);
  sinks.emplace("B", b);
  return sinks;
}

TEST(SinkChecks, InjectedMismatchIsCaughtAndCounted) {
  const SinkSet expected = TwoSinks();
  std::string why;
  EXPECT_TRUE(SinksIdentical(expected, TwoSinks(), &why));

  SinkSet corrupted = TwoSinks();
  corrupted.at("B").data()[3] = std::nextafter(corrupted.at("B").data()[3],
                                               1e9);  // one ulp
  EXPECT_FALSE(SinksIdentical(expected, corrupted, &why));
  EXPECT_NE(why.find("B"), std::string::npos);

  SinkSet missing = TwoSinks();
  missing.erase("A");
  EXPECT_FALSE(SinksIdentical(expected, missing, &why));
  EXPECT_NE(why.find("A"), std::string::npos);

  // The loop's bookkeeping: a mismatching request is a failure.
  Tally tally;
  const SinkSet* runs[] = {&expected, &corrupted, &expected};
  for (const SinkSet* got : runs) {
    if (SinksIdentical(expected, *got, &why)) {
      tally.Ok("prog");
    } else {
      tally.Fail("prog", why);
    }
  }
  EXPECT_EQ(tally.attempted(), 3);
  EXPECT_EQ(tally.ok(), 2);
  EXPECT_EQ(tally.failed(), 1);
  EXPECT_DOUBLE_EQ(tally.error_ratio(), 1.0 / 3.0);
  ASSERT_EQ(tally.messages().size(), 1u);
  EXPECT_NE(tally.messages()[0].find("prog"), std::string::npos);
}

TEST(SinkChecks, ReferenceToleranceIsTheFuzzOracles) {
  const SinkSet reference = TwoSinks();
  SinkSet close = TwoSinks();
  close.at("A").data()[5] *= 1.0 + 1e-9;
  std::string why;
  EXPECT_TRUE(SinksClose(reference, close, 1e-6, 1e-6, &why));
  SinkSet far = TwoSinks();
  far.at("A").data()[5] += 1e-3;
  EXPECT_FALSE(SinksClose(reference, far, 1e-6, 1e-6, &why));
  EXPECT_NE(why.find("A"), std::string::npos);
}

TEST(Tally, KnownFailuresCountAsErrorsButNotAsFailed) {
  Tally tally;
  tally.Ok("a");
  tally.Ok("b");
  tally.Ok("b");
  tally.Known("c", "TypeError: boom");
  EXPECT_EQ(tally.failed(), 0);
  EXPECT_DOUBLE_EQ(tally.error_ratio(), 0.25);
  EXPECT_EQ(tally.status().at("c"), "known failure: TypeError: boom");

  // A program whose output later fails verification loses every ok.
  tally.FailProgram("b", "vs reference");
  EXPECT_EQ(tally.ok(), 1);
  EXPECT_EQ(tally.failed(), 2);
  EXPECT_EQ(tally.attempted(), 4);
  EXPECT_EQ(tally.status().at("b"), "FAILED");
}

TEST(KnownFailure, OnlySparseLogregIsExpectedToFail) {
  EXPECT_NE(KnownFailure("sparse_logreg"), "");
  EXPECT_EQ(KnownFailure("ffnn_step"), "");
  EXPECT_EQ(KnownFailure("ffnn_1024"), "");
}

TEST(RunWorkload, RejectsUnknownWorkloads) {
  for (const char* name : {"dist_exec", "", "warm"}) {
    BenchOptions options;
    options.workload = name;
    EXPECT_FALSE(RunWorkload(options).ok()) << name;
  }
}

}  // namespace
}  // namespace perfbench
