// matopt benchmark program. Runs one workload and prints its metrics; the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   perfbench --workload cold_plan|warm_exec --seed N
//             --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]
//
// Normally started through perfbench/run.py, which builds it first.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/fusion/fusion.h"
#include "core/rewrite/rewrite.h"
#include "la/simd.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Removes every MATOPT_* variable before any library code reads one, so
/// the run uses the options set in code and the compiled defaults. Returns
/// what was present, for the run context.
std::map<std::string, std::string> ScrubMatoptEnv() {
  std::map<std::string, std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("MATOPT_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    found[entry.substr(0, eq)] = eq == std::string::npos ? ""
                                                         : entry.substr(eq + 1);
  }
  for (const auto& [name, value] : found) unsetenv(name.c_str());
  return found;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> EndToEnd(const WorkloadResult& r, const TailStat& tail) {
  const Tally& t = r.tally;
  return {
      {"setup_s", MeanOfGroupMedians(r.setup_seconds, r.setup_cpus), "s"},
      {"requests_per_s",
       r.busy_seconds > 0.0 ? static_cast<double>(t.ok()) / r.busy_seconds
                            : 0.0,
       "1/s"},
      {"request_p50_s", Median(r.latencies), "s"},
      {"request_tail_s", tail.value, "s"},
      {"ok_ratio",
       t.attempted() > 0 ? static_cast<double>(t.ok()) / t.attempted() : 0.0,
       "ratio"},
      {"plan_cost", r.plan_cost, "sim_s"},
      {"plan_sim", r.plan_sim, "sim_s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

/// Units of the per-layer metrics, in the order they are printed.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"frontend.parse_s", "s"},
      {"serve.key_s", "s"},
      {"serve.hit_ratio", "ratio"},
      {"rewrite.enumerate_s", "s"},
      {"rewrite.candidates", "count"},
      {"rewrite.budget_hits", "count"},
      {"rewrite.won", "count"},
      {"opt.search_s", "s"},
      {"opt.states_explored", "count"},
      {"opt.beam_pruned", "count"},
      {"fusion.plan_s", "s"},
      {"fusion.groups", "count"},
      {"engine.dry_run_s", "s"},
      {"engine.execute_s", "s"},
      {"dist.execute_s", "s"},
      {"engine.bytes_copied", "bytes"},
      {"engine.bytes_moved", "bytes"},
      {"engine.fused_bytes_avoided", "bytes"},
      {"la.gemm_s", "s"},
      {"la.gemm_gflops_per_s", "GFLOP/s"},
      {"la.elem_bytes", "bytes"},
      {"pool.hit_rate", "ratio"},
      {"dist.bytes_shuffled", "bytes"},
      {"dist.bytes_broadcast", "bytes"},
      {"dist.messages", "count"},
      {"dist.max_shard_skew", "ratio"},
      {"dist.worker_busy_max_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return units;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_plan|warm_exec "
               "--seed N --seconds S --trace 0|1 [--out DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void PrintRows(const WorkloadResult& r) {
  std::printf("%-20s %5s %11s %11s %12s %12s  %s\n", "program", "reqs",
              "p50_s", "traced_p50", "fused_cost", "sim_s", "status");
  for (const ProgramRow& row : r.rows) {
    auto status = r.tally.status().find(row.name);
    std::printf("%-20s %5zu %11.6f %11.6f %12.6g %12.6g  %s\n",
                row.name.c_str(), row.latencies.size(), Median(row.latencies),
                Median(row.traced_latencies), row.fused_cost, row.sim_seconds,
                status == r.tally.status().end() ? "-"
                                                 : status->second.c_str());
  }
}

/// Per-program layer self times of a traced run (median seconds).
void PrintLayerRows(const WorkloadResult& r) {
  std::vector<std::string> layers;
  for (const ProgramRow& row : r.rows) {
    for (const auto& [name, values] : row.samples) {
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0 &&
          std::find(layers.begin(), layers.end(), name) == layers.end()) {
        layers.push_back(name);
      }
    }
  }
  std::printf("self time per program (median s per request):\n");
  for (const ProgramRow& row : r.rows) {
    std::printf("  %-20s untraced %.6f traced %.6f\n", row.name.c_str(),
                Median(row.latencies), Median(row.traced_latencies));
    for (const std::string& layer : layers) {
      auto it = row.samples.find(layer);
      if (it == row.samples.end()) continue;
      std::printf("    %-28s %.6f\n", layer.c_str(), Median(it->second));
    }
  }
}

std::string ContextJson(const BenchOptions& options,
                        const std::map<std::string, std::string>& env,
                        const std::string& git_sha, const WorkloadResult& r,
                        const TailStat& tail) {
  std::string matopt_env = "{";
  for (const auto& [name, value] : env) {
    if (matopt_env.size() > 1) matopt_env += ", ";
    matopt_env += JsonString(name) + ": " + JsonString(value);
  }
  matopt_env += "}";
  std::string out = "{";
  out += "\"git_sha\": " + JsonString(git_sha);
  out += ", \"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + JsonNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"pool_threads\": " +
         std::to_string(matopt::ThreadPool::Default().num_threads());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_compiled\": " +
         std::string(matopt::SimdCompiled() ? "true" : "false");
  out += ", \"simd_enabled\": " +
         std::string(matopt::SimdEnabled() ? "true" : "false");
  out += ", \"fusion_compiled\": " +
         std::string(matopt::FusionCompiled() ? "true" : "false");
  out += ", \"rewrite_compiled\": " +
         std::string(matopt::RewriteCompiled() ? "true" : "false");
  out += ", \"setup_reps\": " + std::to_string(r.setup_seconds.size());
  out += ", \"setup_cpus\": " +
         std::to_string(std::set<int>(r.setup_cpus.begin(),
                                      r.setup_cpus.end()).size());
  out += ", \"latency_samples\": " + std::to_string(r.latencies.size());
  out += ", \"tail_percentile\": " + JsonNumber(tail.percentile);
  out += ", \"tail_samples_beyond\": " + std::to_string(tail.beyond);
  out += ", \"peak_rss_after_rounds\": " + std::to_string(r.peak_rss_rounds);
  out += ", \"known_failures\": " + std::to_string(r.tally.known());
  out += ", \"error_ratio\": " + JsonNumber(r.tally.error_ratio());
  out += ", \"matopt_env_cleared\": " + matopt_env;
  return out + "}";
}

std::string ArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

/// Per-program rows, set-up times and failures, for the result file.
std::string DetailJson(const WorkloadResult& r) {
  std::string out = "{\"setup_seconds\": " + ArrayJson(r.setup_seconds);
  out += ", \"setup_cpus\": " + ArrayJson(std::vector<double>(
                                     r.setup_cpus.begin(), r.setup_cpus.end()));
  out += ", \"programs\": [";
  for (size_t i = 0; i < r.rows.size(); ++i) {
    const ProgramRow& row = r.rows[i];
    auto status = r.tally.status().find(row.name);
    out += std::string(i > 0 ? ", " : "") + "{\"name\": " +
           JsonString(row.name) + ", \"status\": " +
           JsonString(status == r.tally.status().end() ? "-"
                                                       : status->second) +
           ", \"fused_cost\": " + JsonNumber(row.fused_cost) +
           ", \"sim_seconds\": " + JsonNumber(row.sim_seconds) +
           ", \"latencies\": " + ArrayJson(row.latencies) +
           ", \"traced_latencies\": " + ArrayJson(row.traced_latencies) +
           ", \"layers\": {";
    bool first = true;
    for (const auto& [name, values] : row.samples) {
      out += (first ? "" : ", ") + JsonString(name) + ": " +
             JsonNumber(Median(values));
      first = false;
    }
    out += "}}";
  }
  out += "], \"failures\": [";
  for (size_t i = 0; i < r.tally.messages().size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(r.tally.messages()[i]);
  }
  return out + "]}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const std::map<std::string, std::string> env = ScrubMatoptEnv();
  BenchOptions options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long v = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseInt(value, 0, 1LL << 62, &v)) {
      options.seed = static_cast<uint64_t>(v);
    } else if (arg == "--seconds" && ParseInt(value, 1, 3600, &v)) {
      options.seconds = static_cast<double>(v);
    } else if (arg == "--trace" && ParseInt(value, 0, 1, &v)) {
      options.trace = v == 1;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  // A fixed pool of two threads (one where the machine has a single CPU):
  // on a few cores of a shared host, a pool as wide as the machine waits
  // at every parallel step for whichever core a neighbour is using. Plan
  // search runs as fast on two threads as on four.
  matopt::ThreadPool::SetDefaultThreads(std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kPoolThreads));

  auto result = RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const WorkloadResult& r = result.value();
  const TailStat tail = Tail(r.latencies);

  std::vector<Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : LayerUnits()) {
      auto it = r.layers.find(name);
      metrics.push_back({name, it == r.layers.end() ? 0.0 : it->second, unit});
    }
  } else {
    metrics = EndToEnd(r, tail);
  }

  std::printf("== %s  seed %llu  %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  PrintRows(r);
  if (options.trace) PrintLayerRows(r);
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!options.trace) {
    std::printf("%-28s %16.6g %s  (%lld known, %lld failed of %lld)\n",
                "error_ratio", r.tally.error_ratio(), "ratio",
                static_cast<long long>(r.tally.known()),
                static_cast<long long>(r.tally.failed()),
                static_cast<long long>(r.tally.attempted()));
  }
  for (const std::string& message : r.tally.messages()) {
    std::printf("failure: %s\n", message.c_str());
  }
  const std::string context = ContextJson(options, env, git_sha, r, tail);
  std::printf("context: %s\n", context.c_str());

  const bool correct = r.tally.failed() == 0;
  const std::string line =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.tally.attempted()) +
      ", \"failed\": " + std::to_string(r.tally.failed()) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  if (!options.out_dir.empty()) {
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-traced" : "");
    WriteFile(stem + ".json", "{\"context\": " + context +
                                  ",\n \"detail\": " + DetailJson(r) +
                                  ",\n \"result\": " + line + "}\n");
    if (options.trace && !r.spans.empty()) {
      std::string spans = "[\n";
      for (size_t i = 0; i < r.spans.size(); ++i) {
        const Span& s = r.spans[i];
        spans += "  {\"id\": " + std::to_string(i) +
                 ", \"name\": " + JsonString(s.name) +
                 ", \"request\": " + std::to_string(s.request) +
                 ", \"parent\": " + std::to_string(s.parent) +
                 ", \"start\": " + JsonNumber(s.start) +
                 ", \"end\": " + JsonNumber(s.end) + "}" +
                 (i + 1 < r.spans.size() ? ",\n" : "\n");
      }
      WriteFile(stem + "-spans.json", spans + "]\n");
    }
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
