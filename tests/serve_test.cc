// Tests for the optimizer service (DESIGN.md §17): typed MATOPT_* env
// validation, the three-layer graph fingerprint (exact / parameterized /
// shape bucket), the bounded sharded LRU plan cache — including the TSan
// concurrency hammer (colliding fingerprints, bounded size, no lost
// updates) — the service's cache-hit / parameterized-reuse / admission /
// budget behaviour, bit-identical execution on hit-vs-miss paths, and the
// MATOPT/1 wire protocol round trip.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "engine/cluster.h"
#include "frontend/frontend_lint.h"
#include "serve/fingerprint.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace matopt {
namespace serve {
namespace {

// ------------------------------------------------------------------ env

/// setenv/unsetenv guard: restores the prior value on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(EnvKnobs, BoolParsingIsStrict) {
  EXPECT_TRUE(ParseEnvBool("MATOPT_SIMD", "1").ok());
  EXPECT_TRUE(ParseEnvBool("MATOPT_SIMD", "1").value());
  EXPECT_FALSE(ParseEnvBool("MATOPT_SIMD", "0").value());
  for (const char* bad : {"", "2", "yes", "true", "01", " 1"}) {
    Result<bool> parsed = ParseEnvBool("MATOPT_SIMD", bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find("MATOPT_SIMD"),
              std::string::npos);
  }
}

TEST(EnvKnobs, IntParsingChecksRangeAndJunk) {
  EXPECT_EQ(ParseEnvInt("MATOPT_THREADS", "8", 1, 1024).value(), 8);
  EXPECT_EQ(ParseEnvInt("MATOPT_THREADS", "1024", 1, 1024).value(), 1024);
  for (const char* bad : {"", "0", "1025", "4x", "x4", "3.5", "-1"}) {
    Result<int64_t> parsed = ParseEnvInt("MATOPT_THREADS", bad, 1, 1024);
    ASSERT_FALSE(parsed.ok()) << bad;
    // The typed error names the knob, its value, and the legal range.
    EXPECT_NE(parsed.status().message().find("MATOPT_THREADS"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find("[1, 1024]"), std::string::npos);
  }
}

TEST(EnvKnobs, ValidateMatoptEnvNamesTheOffendingKnob) {
  {
    ScopedEnv workers("MATOPT_WORKERS", "12");
    ScopedEnv fusion("MATOPT_FUSION", "1");
    EXPECT_TRUE(ValidateMatoptEnv().ok());
  }
  {
    ScopedEnv workers("MATOPT_WORKERS", "many");
    Status status = ValidateMatoptEnv();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("MATOPT_WORKERS=many"), std::string::npos);
  }
  {
    ScopedEnv rewrite("MATOPT_REWRITE", "on");
    Status status = ValidateMatoptEnv();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("MATOPT_REWRITE"), std::string::npos);
  }
  {
    // String-valued knobs accept anything.
    ScopedEnv sock("MATOPT_SERVE_SOCKET", "/tmp/x.sock");
    EXPECT_TRUE(ValidateMatoptEnv().ok());
  }
}

TEST(EnvKnobs, FrontierDebugIsAStrictBoolKnob) {
  {
    ScopedEnv debug("MATOPT_FRONTIER_DEBUG", nullptr);
    EXPECT_FALSE(EnvFlag("MATOPT_FRONTIER_DEBUG"));
  }
  {
    // "0" means off (any set value used to turn debugging on).
    ScopedEnv debug("MATOPT_FRONTIER_DEBUG", "0");
    EXPECT_FALSE(EnvFlag("MATOPT_FRONTIER_DEBUG"));
    EXPECT_TRUE(ValidateMatoptEnv().ok());
  }
  {
    ScopedEnv debug("MATOPT_FRONTIER_DEBUG", "1");
    EXPECT_TRUE(EnvFlag("MATOPT_FRONTIER_DEBUG"));
  }
  {
    ScopedEnv debug("MATOPT_FRONTIER_DEBUG", "yes");
    EXPECT_FALSE(EnvFlag("MATOPT_FRONTIER_DEBUG"));
    Status status = ValidateMatoptEnv();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("MATOPT_FRONTIER_DEBUG=yes"),
              std::string::npos);
  }
}

TEST(EnvKnobs, ServeCacheEntriesOverride) {
  {
    ScopedEnv entries("MATOPT_SERVE_CACHE_ENTRIES", "7");
    EXPECT_EQ(OptimizerService::DefaultCacheEntries(64), 7);
  }
  {
    ScopedEnv entries("MATOPT_SERVE_CACHE_ENTRIES", nullptr);
    EXPECT_EQ(OptimizerService::DefaultCacheEntries(64), 64);
  }
  {
    // Lenient library fallback: a bad value keeps the configured default.
    ScopedEnv entries("MATOPT_SERVE_CACHE_ENTRIES", "zero");
    EXPECT_EQ(OptimizerService::DefaultCacheEntries(64), 64);
  }
}

// --------------------------------------------------------- fingerprints

std::string ChainSource(int64_t m, int64_t k, int64_t n, int64_t p,
                        double sparsity = 1.0) {
  char buf[512];
  if (sparsity < 1.0) {
    std::snprintf(buf, sizeof(buf),
                  "input A[%lld, %lld] format = sp_csr sparsity = %.6f;\n"
                  "input B[%lld, %lld] format = single;\n"
                  "input C[%lld, %lld] format = single;\n"
                  "O = (A * B) * C;\noutput O;\n",
                  static_cast<long long>(m), static_cast<long long>(k),
                  sparsity, static_cast<long long>(k),
                  static_cast<long long>(n), static_cast<long long>(n),
                  static_cast<long long>(p));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "input A[%lld, %lld] format = single;\n"
                  "input B[%lld, %lld] format = single;\n"
                  "input C[%lld, %lld] format = single;\n"
                  "O = (A * B) * C;\noutput O;\n",
                  static_cast<long long>(m), static_cast<long long>(k),
                  static_cast<long long>(k), static_cast<long long>(n),
                  static_cast<long long>(n), static_cast<long long>(p));
  }
  return buf;
}

class ServeFixture : public ::testing::Test {
 protected:
  Catalog catalog_;
  ClusterConfig cluster_ = SimSqlProfile(4);

  ComputeGraph Parse(const std::string& source) {
    auto program = ParseProgramChecked(source, catalog_, cluster_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return program.value().graph;
  }

  GraphKey Key(const std::string& source) {
    return MakeGraphKey(Parse(source), cluster_, OptimizerOptions{},
                        RewriteOptions{});
  }
};

TEST_F(ServeFixture, DimensionOnlyChangeSharesParamFingerprint) {
  GraphKey small = Key(ChainSource(600, 610, 620, 630));
  GraphKey large = Key(ChainSource(700, 710, 720, 730));
  EXPECT_NE(small.exact, large.exact);
  EXPECT_EQ(small.param, large.param);
  // 600..1023 all land in the same log2 bucket.
  EXPECT_EQ(small.shape_bucket, large.shape_bucket);

  GraphKey tiny = Key(ChainSource(60, 61, 62, 63));
  EXPECT_EQ(small.param, tiny.param);
  EXPECT_NE(small.shape_bucket, tiny.shape_bucket);
}

TEST_F(ServeFixture, StructureAndNamesChangeParamFingerprint) {
  GraphKey chain = Key(ChainSource(600, 610, 620, 630));
  // Same shapes, different association: (A * (B * C)).
  GraphKey assoc = Key(
      "input A[600, 610] format = single;\n"
      "input B[610, 620] format = single;\n"
      "input C[620, 630] format = single;\n"
      "O = A * (B * C);\noutput O;\n");
  EXPECT_NE(chain.param, assoc.param);

  // Same structure, renamed input: the serving layer binds by name.
  GraphKey renamed = Key(
      "input A2[600, 610] format = single;\n"
      "input B[610, 620] format = single;\n"
      "input C[620, 630] format = single;\n"
      "O = (A2 * B) * C;\noutput O;\n");
  EXPECT_NE(chain.param, renamed.param);
}

TEST_F(ServeFixture, SparsityIsHalfDecadeBucketed) {
  EXPECT_EQ(SparsityBucket(1.0), 0);
  EXPECT_EQ(SparsityBucket(2.0), 0);
  EXPECT_EQ(SparsityBucket(0.0), 41);
  EXPECT_EQ(SparsityBucket(-0.5), 41);
  // Same half-decade => same bucket; a decade apart => different.
  EXPECT_EQ(SparsityBucket(0.012), SparsityBucket(0.015));
  EXPECT_NE(SparsityBucket(0.01), SparsityBucket(0.001));
  EXPECT_LE(SparsityBucket(1e-30), 40);

  GraphKey a = Key(ChainSource(600, 610, 620, 630, 0.012));
  GraphKey b = Key(ChainSource(600, 610, 620, 630, 0.015));
  GraphKey c = Key(ChainSource(600, 610, 620, 630, 0.001));
  EXPECT_EQ(a.param, b.param);
  EXPECT_NE(a.param, c.param);
}

TEST_F(ServeFixture, PlanningContextIsFoldedIntoTheKey) {
  ComputeGraph graph = Parse(ChainSource(600, 610, 620, 630));
  GraphKey base =
      MakeGraphKey(graph, cluster_, OptimizerOptions{}, RewriteOptions{});

  GraphKey other_cluster = MakeGraphKey(graph, SimSqlProfile(8),
                                        OptimizerOptions{}, RewriteOptions{});
  EXPECT_NE(base.exact, other_cluster.exact);
  EXPECT_NE(base.param, other_cluster.param);

  OptimizerOptions no_fusion;
  no_fusion.plan_fusion = false;
  GraphKey other_options =
      MakeGraphKey(graph, cluster_, no_fusion, RewriteOptions{});
  EXPECT_NE(base.exact, other_options.exact);

  RewriteOptions no_rewrite;
  no_rewrite.enable = false;
  GraphKey other_rewrite =
      MakeGraphKey(graph, cluster_, OptimizerOptions{}, no_rewrite);
  EXPECT_NE(base.exact, other_rewrite.exact);
}

// ------------------------------------------------------------ plan cache

std::shared_ptr<const CachedPlan> MakeEntry(uint64_t exact, uint64_t param,
                                            uint64_t bucket,
                                            double cold_seconds = 0.5) {
  auto entry = std::make_shared<CachedPlan>();
  entry->key.exact = exact;
  entry->key.param = param;
  entry->key.shape_bucket = bucket;
  // Integrity tag: a reader must always observe a plan consistent with the
  // key it looked up, even under concurrent replacement.
  entry->baseline_cost = static_cast<double>(exact);
  entry->cold_opt_seconds = cold_seconds;
  return entry;
}

GraphKey KeyOf(uint64_t exact, uint64_t param, uint64_t bucket) {
  GraphKey key;
  key.exact = exact;
  key.param = param;
  key.shape_bucket = bucket;
  return key;
}

TEST(PlanCache, BoundedLruEvictsOldest) {
  PlanCache cache(4, 1);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(MakeEntry(/*exact=*/100 + i, /*param=*/i, /*bucket=*/1));
  }
  EXPECT_EQ(cache.size(), 4);
  EXPECT_EQ(cache.Stats().inserts, 8);
  EXPECT_EQ(cache.Stats().evictions, 4);
  // The four oldest are gone, the four newest present.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Lookup(KeyOf(100 + i, i, 1)), nullptr) << i;
  }
  for (uint64_t i = 4; i < 8; ++i) {
    auto hit = cache.Lookup(KeyOf(100 + i, i, 1));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->key.exact, 100 + i);
  }
  EXPECT_EQ(cache.Stats().hits, 4);
  EXPECT_EQ(cache.Stats().misses, 4);
}

TEST(PlanCache, LookupRefreshesRecency) {
  PlanCache cache(2, 1);
  cache.Insert(MakeEntry(1, 1, 0));
  cache.Insert(MakeEntry(2, 2, 0));
  ASSERT_NE(cache.Lookup(KeyOf(1, 1, 0)), nullptr);  // 1 is now most recent
  cache.Insert(MakeEntry(3, 3, 0));                  // evicts 2, not 1
  EXPECT_NE(cache.Lookup(KeyOf(1, 1, 0)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyOf(2, 2, 0)), nullptr);
  EXPECT_NE(cache.Lookup(KeyOf(3, 3, 0)), nullptr);
}

TEST(PlanCache, HitsBankAmortizedSearchSeconds) {
  PlanCache cache(4, 1);
  cache.Insert(MakeEntry(1, 1, 0, /*cold_seconds=*/2.0));
  ASSERT_NE(cache.Lookup(KeyOf(1, 1, 0)), nullptr);
  ASSERT_NE(cache.Lookup(KeyOf(1, 1, 0)), nullptr);
  EXPECT_DOUBLE_EQ(cache.Stats().opt_seconds_saved, 4.0);
}

TEST(PlanCache, ParamIndexFindsDimensionVariantDonor) {
  PlanCache cache(8, 1);
  cache.Insert(MakeEntry(/*exact=*/10, /*param=*/77, /*bucket=*/5));

  // Same exact key: not a dimension-only variant.
  EXPECT_EQ(cache.LookupParam(KeyOf(10, 77, 5)), nullptr);
  // Same param, different exact: donor found.
  auto donor = cache.LookupParam(KeyOf(11, 77, 6));
  ASSERT_NE(donor, nullptr);
  EXPECT_EQ(donor->key.exact, 10u);
  // Different param: nothing.
  EXPECT_EQ(cache.LookupParam(KeyOf(11, 78, 6)), nullptr);

  // The index tracks the most recent entry of the param family.
  cache.Insert(MakeEntry(/*exact=*/11, /*param=*/77, /*bucket=*/6));
  donor = cache.LookupParam(KeyOf(12, 77, 7));
  ASSERT_NE(donor, nullptr);
  EXPECT_EQ(donor->key.exact, 11u);
}

TEST(PlanCache, BucketValidationAndInvalidation) {
  PlanCache cache(8, 1);
  GraphKey key = KeyOf(10, 77, 5);
  EXPECT_FALSE(cache.IsBucketValidated(key));
  cache.MarkBucketValidated(key);
  EXPECT_TRUE(cache.IsBucketValidated(key));
  // A different shape bucket of the same family is not validated.
  EXPECT_FALSE(cache.IsBucketValidated(KeyOf(11, 77, 6)));

  cache.Insert(MakeEntry(10, 77, 5));
  cache.InvalidateParam(key);  // MO090 path: stale reuse drops the family
  EXPECT_FALSE(cache.IsBucketValidated(key));
  EXPECT_EQ(cache.LookupParam(KeyOf(11, 77, 6)), nullptr);
  // The exact entry itself survives; only parameterized reuse is disabled.
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(PlanCache, EvictionDropsDanglingParamIndex) {
  PlanCache cache(2, 1);
  cache.Insert(MakeEntry(/*exact=*/1, /*param=*/7, /*bucket=*/0));
  cache.Insert(MakeEntry(/*exact=*/2, /*param=*/8, /*bucket=*/0));
  cache.Insert(MakeEntry(/*exact=*/3, /*param=*/9, /*bucket=*/0));  // evicts 1
  EXPECT_EQ(cache.LookupParam(KeyOf(99, 7, 0)), nullptr);
}

// The TSan hammer of the ISSUE's satellite: N threads over colliding
// fingerprints; the cache must stay bounded, never lose an update it
// acknowledged (an immediate lookup in the absence of capacity pressure
// sees *a* full entry of that key family), and every entry handed out must
// be internally consistent (its payload matches its own key).
TEST(PlanCache, ConcurrentHammerStaysBoundedAndConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  constexpr int kKeySpace = 24;  // << threads * iterations: heavy collisions
  PlanCache cache(16, 4);

  std::atomic<int64_t> integrity_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &integrity_failures, t]() {
      for (int i = 0; i < kIterations; ++i) {
        const uint64_t slot = static_cast<uint64_t>((t * 31 + i) % kKeySpace);
        const uint64_t exact = 1000 + slot;
        const uint64_t param = slot / 2;  // two shapes per param family
        GraphKey key = KeyOf(exact, param, slot % 3);
        switch (i % 5) {
          case 0:
            cache.Insert(MakeEntry(exact, param, slot % 3));
            break;
          case 1: {
            auto hit = cache.Lookup(key);
            if (hit != nullptr &&
                hit->baseline_cost != static_cast<double>(hit->key.exact)) {
              integrity_failures.fetch_add(1);
            }
            break;
          }
          case 2: {
            auto donor = cache.LookupParam(key);
            if (donor != nullptr &&
                (donor->key.param != param ||
                 donor->baseline_cost !=
                     static_cast<double>(donor->key.exact))) {
              integrity_failures.fetch_add(1);
            }
            break;
          }
          case 3:
            cache.MarkBucketValidated(key);
            (void)cache.IsBucketValidated(key);
            break;
          default:
            if (i % 50 == 4) {
              cache.InvalidateParam(key);
            } else {
              (void)cache.size();
              (void)cache.Stats();
            }
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(integrity_failures.load(), 0);
  EXPECT_LE(cache.size(), 16);
  PlanCacheStats stats = cache.Stats();
  EXPECT_LE(stats.evictions, stats.inserts);
  // No lost updates under zero capacity pressure: single-threaded epilogue,
  // every insert is immediately visible.
  for (uint64_t i = 0; i < 8; ++i) {
    GraphKey key = KeyOf(5000 + i, 4000 + i, 0);
    cache.Insert(MakeEntry(key.exact, key.param, key.shape_bucket));
    auto hit = cache.Lookup(key);
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->key.exact, key.exact);
  }
}

// ---------------------------------------------------------------- service

ServeOptions FastOptions() {
  ServeOptions options;
  options.cache_entries = 16;
  options.cache_shards = 2;
  // Dimension-reuse tests want deterministic non-rewritten donors.
  options.rewrite.enable = false;
  return options;
}

TEST(OptimizerServiceTest, ExactHitSkipsSearchAndMatchesCost) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  OptimizerService service(catalog, cluster, FastOptions());

  ServeRequest request;
  request.program = ChainSource(600, 610, 620, 630);

  auto first = service.Handle(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().cache, CacheOutcome::kMiss);

  auto second = service.Handle(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().cache, CacheOutcome::kHit);
  EXPECT_DOUBLE_EQ(second.value().cost, first.value().cost);
  EXPECT_DOUBLE_EQ(second.value().fused_cost, first.value().fused_cost);
  EXPECT_DOUBLE_EQ(second.value().sim_seconds, first.value().sim_seconds);
  EXPECT_EQ(second.value().key.ToString(), first.value().key.ToString());

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_GT(stats.optimize_seconds_saved, 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(OptimizerServiceTest, DimensionVariantsReuseAfterEnvelopeValidation) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  OptimizerService service(catalog, cluster, FastOptions());

  // Three dimension-only variants in the same log2 shape bucket.
  ServeRequest request;
  request.program = ChainSource(600, 610, 620, 630);
  auto r1 = service.Handle(request);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().cache, CacheOutcome::kMiss);

  // Second variant: a donor exists but the bucket is unvalidated, so a
  // fresh search runs and cross-checks the re-costed donor (envelope).
  request.program = ChainSource(640, 650, 660, 670);
  auto r2 = service.Handle(request);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().cache, CacheOutcome::kMiss);

  // Third variant: the bucket is validated — reuse skips the search.
  request.program = ChainSource(700, 710, 720, 730);
  auto r3 = service.Handle(request);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3.value().cache, CacheOutcome::kParamHit);
  EXPECT_GT(r3.value().cost, 0.0);

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.param_hits, 1);
  EXPECT_EQ(stats.param_rejects, 0);

  // The reused plan's cost must be within the envelope of a fresh search
  // on the same program (the fuzz-oracle-style cross-check).
  OptimizerService fresh_service(catalog, cluster, FastOptions());
  auto fresh = fresh_service.Handle(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_LE(r3.value().fused_cost,
            service.options().reuse_envelope * fresh.value().fused_cost +
                1e-9);
}

TEST(OptimizerServiceTest, ExecutionIsBitIdenticalAcrossHitAndMiss) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  ServeOptions options = FastOptions();
  options.rewrite.enable = true;  // exercise the rewritten-graph path too
  OptimizerService service(catalog, cluster, options);

  ServeRequest request;
  request.program = ChainSource(200, 210, 220, 230);
  request.execute = true;
  request.input_seed = 42;

  auto miss = service.Handle(request);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(miss.value().cache, CacheOutcome::kMiss);
  ASSERT_TRUE(miss.value().executed);
  ASSERT_FALSE(miss.value().sink_checksums.empty());

  auto hit = service.Handle(request);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit.value().cache, CacheOutcome::kHit);
  ASSERT_TRUE(hit.value().executed);
  EXPECT_EQ(hit.value().sink_checksums, miss.value().sink_checksums);

  // A different seed must change the data (the checksum is not vacuous).
  request.input_seed = 43;
  auto other = service.Handle(request);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_NE(other.value().sink_checksums, miss.value().sink_checksums);
}

TEST(OptimizerServiceTest, AdmissionRejectsWithTypedBudgetError) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  ServeOptions options = FastOptions();
  options.max_inflight = 0;  // reject everything at the door
  OptimizerService service(catalog, cluster, options);

  ServeRequest request;
  request.program = ChainSource(100, 110, 120, 130);
  auto response = service.Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsOutOfMemory());
  EXPECT_NE(response.status().message().find("admission"), std::string::npos);
  EXPECT_EQ(service.Stats().admission_rejects, 1);
}

TEST(OptimizerServiceTest, TenantCostBudgetRejectsExpensivePlans) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  OptimizerService service(catalog, cluster, FastOptions());

  TenantBudget tight;
  tight.max_plan_cost_seconds = 1e-9;
  service.SetTenantBudget("tight", tight);

  ServeRequest request;
  request.tenant = "tight";
  request.program = ChainSource(600, 610, 620, 630);
  auto response = service.Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsOutOfMemory());
  EXPECT_NE(response.status().message().find("budget"), std::string::npos);
  EXPECT_EQ(service.Stats().budget_rejects, 1);

  // Another tenant with the default (unlimited) budget still succeeds.
  request.tenant = "default";
  auto ok_response = service.Handle(request);
  EXPECT_TRUE(ok_response.ok()) << ok_response.status().ToString();
}

TEST(OptimizerServiceTest, ServeStatsRenderIntoExecStats) {
  ServeStats stats;
  stats.requests = 4;
  stats.cache_hits = 2;
  stats.cache_misses = 2;
  stats.optimize_seconds = 1.0;
  stats.optimize_seconds_saved = 3.0;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("serve:"), std::string::npos);
  EXPECT_NE(text.find("hit rate"), std::string::npos);

  ExecStats exec;
  EXPECT_EQ(exec.ToString().find("serve:"), std::string::npos);
  exec.serve = stats;
  EXPECT_NE(exec.ToString().find("serve:"), std::string::npos);
}

// --------------------------------------------------------------- protocol

TEST(Protocol, EncodeDecodeRoundTrip) {
  WireMessage message;
  message.verb = "RUN";
  message.fields["tenant"] = "alice";
  message.fields["seed"] = "7";
  message.payload = "input A[2, 2] format = single;\noutput A;\n";

  std::string wire = message.Encode();
  size_t offset = 0;
  auto decoded = DecodeMessage(wire, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(decoded.value().verb, "RUN");
  EXPECT_EQ(decoded.value().fields.at("tenant"), "alice");
  EXPECT_EQ(decoded.value().fields.at("seed"), "7");
  EXPECT_EQ(decoded.value().payload, message.payload);

  // Two messages back to back parse sequentially from one buffer.
  std::string two = wire + wire;
  offset = 0;
  ASSERT_TRUE(DecodeMessage(two, &offset).ok());
  ASSERT_TRUE(DecodeMessage(two, &offset).ok());
  EXPECT_EQ(offset, two.size());
}

TEST(Protocol, IncompleteAndMalformedMessages) {
  WireMessage message;
  message.verb = "PLAN";
  message.payload = "0123456789";
  std::string wire = message.Encode();

  // Every strict prefix is "incomplete", never an error.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    size_t offset = 0;
    auto decoded = DecodeMessage(wire.substr(0, cut), &offset);
    ASSERT_FALSE(decoded.ok()) << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound) << cut;
    EXPECT_EQ(offset, 0u);
  }

  size_t offset = 0;
  EXPECT_EQ(DecodeMessage("HTTP/1.1 GET bytes=0\n", &offset).status().code(),
            StatusCode::kInvalidArgument);
  offset = 0;
  EXPECT_EQ(DecodeMessage("MATOPT/1 PLAN\n", &offset).status().code(),
            StatusCode::kInvalidArgument);  // missing bytes=
  offset = 0;
  EXPECT_EQ(
      DecodeMessage("MATOPT/1 PLAN bytes=junk\n", &offset).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(Protocol, HandleMessageServesPlanStatsPingAndErrors) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  OptimizerService service(catalog, cluster, FastOptions());

  ServeRequest request;
  request.program = ChainSource(200, 210, 220, 230);
  WireMessage wire_request = EncodeRequest(request);
  EXPECT_EQ(wire_request.verb, "PLAN");

  bool shutdown = false;
  WireMessage response = HandleMessage(service, wire_request, &shutdown);
  EXPECT_FALSE(shutdown);
  ASSERT_EQ(response.verb, "OK");
  EXPECT_EQ(response.fields.at("cache"), "miss");
  EXPECT_EQ(response.fields.at("executed"), "0");

  response = HandleMessage(service, wire_request, &shutdown);
  EXPECT_EQ(response.fields.at("cache"), "hit");

  WireMessage ping;
  ping.verb = "PING";
  EXPECT_EQ(HandleMessage(service, ping, &shutdown).verb, "OK");

  WireMessage stats;
  stats.verb = "STATS";
  WireMessage stats_response = HandleMessage(service, stats, &shutdown);
  ASSERT_EQ(stats_response.verb, "OK");
  EXPECT_EQ(stats_response.fields.at("requests"), "2");
  EXPECT_EQ(stats_response.fields.at("cache_hits"), "1");

  WireMessage bad;
  bad.verb = "DELETE";
  WireMessage error = HandleMessage(service, bad, &shutdown);
  EXPECT_EQ(error.verb, "ERROR");
  EXPECT_EQ(error.fields.at("code"), "InvalidArgument");

  WireMessage parse_error;
  parse_error.verb = "PLAN";
  parse_error.payload = "this is not a program";
  error = HandleMessage(service, parse_error, &shutdown);
  EXPECT_EQ(error.verb, "ERROR");

  WireMessage shutdown_request;
  shutdown_request.verb = "SHUTDOWN";
  EXPECT_EQ(HandleMessage(service, shutdown_request, &shutdown).verb, "OK");
  EXPECT_TRUE(shutdown);
}

// Concurrent end-to-end hammer over one service: all threads race the same
// small program family through Handle(). TSan-checked: no data races, and
// every successful response reports a coherent outcome.
TEST(OptimizerServiceTest, ConcurrentHandleIsRaceFreeAndCoherent) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  ServeOptions options = FastOptions();
  options.cache_entries = 4;  // force evictions under contention
  OptimizerService service(catalog, cluster, options);

  constexpr int kThreads = 6;
  constexpr int kIterations = 6;
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures, t]() {
      for (int i = 0; i < kIterations; ++i) {
        ServeRequest request;
        // A handful of distinct programs, shared across threads.
        const int variant = (t + i) % 3;
        request.program =
            ChainSource(100 + variant * 10, 110, 120, 130 + variant * 10);
        auto response = service.Handle(request);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (response.value().cost <= 0.0 ||
            response.value().fused_cost > response.value().cost + 1e-9) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.Stats().requests, kThreads * kIterations);
  EXPECT_LE(service.cache().size(), 4);
}

// Single flight: concurrent exact-key misses on a fresh service wait on one
// search and share its entry, so exactly one cold search runs and every
// response carries the same plan and the same sink checksums. TSan-checked.
TEST(OptimizerServiceTest, ConcurrentColdMissesShareOneSearch) {
  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);
  ServeOptions options = FastOptions();
  options.rewrite.enable = true;  // a longer search, so requests overlap
  OptimizerService service(catalog, cluster, options);

  ServeRequest request;
  request.program = ChainSource(200, 210, 220, 230);
  request.execute = true;
  request.input_seed = 42;

  constexpr int kThreads = 6;
  std::vector<Result<ServeResponse>> responses(
      kThreads, Result<ServeResponse>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &request, &responses, t]() {
      responses[t] = service.Handle(request);
    });
  }
  for (std::thread& thread : threads) thread.join();

  ServeStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, kThreads - 1);
  int misses = 0;
  for (const Result<ServeResponse>& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const ServeResponse& r = response.value();
    misses += r.cache == CacheOutcome::kMiss;
    ASSERT_TRUE(r.executed);
    EXPECT_EQ(r.fused_cost, responses[0].value().fused_cost);
    EXPECT_EQ(r.cost, responses[0].value().cost);
    EXPECT_EQ(r.rewrite_chain, responses[0].value().rewrite_chain);
    EXPECT_EQ(r.sink_checksums, responses[0].value().sink_checksums);
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(service.cache().size(), 1);
}

}  // namespace
}  // namespace serve
}  // namespace matopt
