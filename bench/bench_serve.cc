// Optimizer-service amortization A/B (DESIGN.md §17): for the three paper
// programs (FFNN step, matmul chain, block inverse — the serve_*_small.mla
// sources the CI smoke also drives) measure the median optimize latency of
// a cold search (fresh service per repetition, cache miss) against an
// exact-fingerprint cache hit on a warmed service, executing every request
// and checking the sinks stay bit-identical across outcomes. Emits
// BENCH_serve.json. Self-checking: exits 2 on any checksum divergence or
// unexpected cache outcome, 1 when any workload's hit speedup falls below
// the 10x amortization gate. `--quick` runs fewer repetitions for CI smoke.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/service.h"

namespace matopt {
namespace {

constexpr double kMinSpeedup = 10.0;

struct ServeBenchRow {
  std::string workload;
  double cold_median_seconds = 0.0;
  double hit_median_seconds = 0.0;
  double speedup = 0.0;
  bool identical = false;  // sinks bit-identical across every run
  bool outcomes_ok = false;  // cold runs missed, warmed runs hit
  std::vector<std::pair<std::string, uint64_t>> sinks;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Loads one of the checked-in example programs from the repo root;
/// MATOPT_BENCH_DIR only moves the JSON output.
bool ReadProgram(const std::string& rel_path, std::string* source) {
  const std::string path = RepoInputPath(rel_path);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *source = buf.str();
  return true;
}

serve::ServeOptions BenchServeOptions() {
  serve::ServeOptions options;
  options.cache_entries = 16;
  options.cache_shards = 2;
  return options;
}

ServeBenchRow RunWorkload(const std::string& name, const std::string& program,
                          const Catalog& catalog, const ClusterConfig& cluster,
                          int reps) {
  ServeBenchRow row;
  row.workload = name;
  row.identical = true;
  row.outcomes_ok = true;

  serve::ServeRequest request;
  request.program = program;
  request.execute = true;

  // Cold side: a fresh service per repetition so every search runs from an
  // empty cache (the first-ever-request latency a client pays).
  std::vector<double> cold;
  for (int r = 0; r < reps; ++r) {
    serve::OptimizerService service(catalog, cluster, BenchServeOptions());
    auto response = service.Handle(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s cold: %s\n", name.c_str(),
                   response.status().ToString().c_str());
      row.outcomes_ok = false;
      return row;
    }
    if (response.value().cache != serve::CacheOutcome::kMiss ||
        !response.value().executed) {
      row.outcomes_ok = false;
    }
    cold.push_back(response.value().optimize_seconds);
    if (row.sinks.empty()) {
      row.sinks = response.value().sink_checksums;
    } else if (row.sinks != response.value().sink_checksums) {
      row.identical = false;
    }
  }

  // Hit side: one service, warmed by a single search, then timed hits.
  serve::OptimizerService service(catalog, cluster, BenchServeOptions());
  auto warm = service.Handle(request);
  if (!warm.ok() || warm.value().cache != serve::CacheOutcome::kMiss) {
    row.outcomes_ok = false;
    return row;
  }
  if (row.sinks != warm.value().sink_checksums) row.identical = false;
  std::vector<double> hit;
  for (int r = 0; r < reps; ++r) {
    auto response = service.Handle(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s hit: %s\n", name.c_str(),
                   response.status().ToString().c_str());
      row.outcomes_ok = false;
      return row;
    }
    if (response.value().cache != serve::CacheOutcome::kHit ||
        !response.value().executed) {
      row.outcomes_ok = false;
    }
    hit.push_back(response.value().optimize_seconds);
    if (row.sinks != response.value().sink_checksums) row.identical = false;
  }

  row.cold_median_seconds = Median(cold);
  row.hit_median_seconds = Median(hit);
  row.speedup = row.hit_median_seconds > 0.0
                    ? row.cold_median_seconds / row.hit_median_seconds
                    : kMinSpeedup * 1e3;  // hit below clock resolution
  return row;
}

}  // namespace
}  // namespace matopt

int main(int argc, char** argv) {
  using namespace matopt;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int reps = quick ? 3 : 7;

  Catalog catalog;
  ClusterConfig cluster = SimSqlProfile(4);

  const std::pair<const char*, const char*> programs[] = {
      {"ffnn_step", "examples/programs/serve_ffnn_small.mla"},
      {"matmul_chain", "examples/programs/serve_chain_small.mla"},
      {"block_inverse", "examples/programs/serve_inverse_small.mla"},
  };

  std::printf("optimizer-service amortization: cold search vs cache hit "
              "(median of %d, executed, checksummed)\n\n", reps);
  std::printf("%-16s %14s %14s %9s  %s\n", "workload", "cold (ms)", "hit (ms)",
              "speedup", "sinks");

  std::vector<ServeBenchRow> rows;
  bool ok = true;
  for (const auto& p : programs) {
    std::string source;
    if (!ReadProgram(p.second, &source)) return 2;
    ServeBenchRow row = RunWorkload(p.first, source, catalog, cluster, reps);
    std::printf("%-16s %14.3f %14.3f %8.1fx  %s%s\n", row.workload.c_str(),
                row.cold_median_seconds * 1e3, row.hit_median_seconds * 1e3,
                row.speedup,
                row.identical ? "bit-identical" : "MISMATCH",
                row.outcomes_ok ? "" : " (UNEXPECTED CACHE OUTCOME)");
    if (!row.identical || !row.outcomes_ok) ok = false;
    rows.push_back(std::move(row));
  }
  if (!ok) return 2;

  bool fast_enough = true;
  for (const ServeBenchRow& row : rows) {
    if (row.speedup < kMinSpeedup) {
      std::fprintf(stderr, "%s: hit speedup %.1fx below the %.0fx gate\n",
                   row.workload.c_str(), row.speedup, kMinSpeedup);
      fast_enough = false;
    }
  }

  const std::string json_path = BenchOutputPath("BENCH_serve.json");
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"min_speedup_gate\": %.0f,\n  \"results\": [\n",
               kMinSpeedup);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServeBenchRow& r = rows[i];
    std::string sinks;
    for (size_t s = 0; s < r.sinks.size(); ++s) {
      char one[96];
      std::snprintf(one, sizeof(one), "%s{\"%s\": \"%016llx\"}",
                    s == 0 ? "" : ", ", r.sinks[s].first.c_str(),
                    static_cast<unsigned long long>(r.sinks[s].second));
      sinks += one;
    }
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"cold_median_ms\": %.3f, "
                 "\"hit_median_ms\": %.3f, \"speedup\": %.1f, "
                 "\"identical\": %s, \"sinks\": [%s]}%s\n",
                 r.workload.c_str(), r.cold_median_seconds * 1e3,
                 r.hit_median_seconds * 1e3, r.speedup,
                 r.identical ? "true" : "false", sinks.c_str(),
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  return fast_enough ? 0 : 1;
}
