#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "core/cost/cost_model.h"
#include "core/format/format.h"
#include "core/fusion/fusion.h"
#include "core/ops/catalog.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/cluster.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "frontend/frontend_lint.h"
#include "fuzz/reference.h"
#include "la/kernel_stats.h"
#include "ml/generators.h"
#include "serve/fingerprint.h"
#include "serve/service.h"
#include "trace.h"

namespace perfbench {

using matopt::ComputeGraph;
using matopt::DenseMatrix;
using matopt::ExecResult;
using matopt::OpKind;
using matopt::PlanResult;
using matopt::Relation;
using matopt::Result;
using matopt::Status;
using matopt::serve::CachedPlan;
using matopt::serve::OptimizerService;

namespace {

constexpr int kDistWorkers = 4;
// Set-ups timed per run; setup_s is the mean of their per-CPU medians
// (see SetupPinning). A run repeats set-up at least kMinSetupReps times and
// until kMinSetupSeconds have passed, so sub-millisecond set-ups still get
// steady medians.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 10000;
constexpr double kMinSetupSeconds = 1.0;
// The fuzz oracle's execution tolerances (OracleOptions::exec_rtol/atol).
constexpr double kRtol = 1e-6;
constexpr double kAtol = 1e-6;
// SimSqlProfile's default size, the simulated cluster matopt_serve plans
// for unless told otherwise.
constexpr int kClusterWorkers = 10;

using Clock = std::chrono::steady_clock;
/// Sink checksums by name, sorted, as OptimizerService reports them.
using SinkSums = std::vector<std::pair<std::string, uint64_t>>;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ProgramSource {
  std::string name;
  std::string path;
};

std::vector<ProgramSource> ProgramSet(const std::string& workload) {
  std::vector<ProgramSource> set;
  if (workload == "cold_plan") {
    for (const char* name :
         {"ffnn_step", "matmul_chain", "serve_chain_small", "serve_ffnn_small",
          "serve_inverse_small", "sparse_logreg"}) {
      set.push_back({name, std::string(MATOPT_ROOT_DIR) +
                               "/examples/programs/" + name + ".mla"});
    }
  } else {
    for (const char* name : {"ffnn_1024", "epilogue_2048", "inverse_512"}) {
      set.push_back({name, std::string(PERFBENCH_SOURCE_DIR) + "/programs/" +
                               name + ".mla"});
    }
  }
  return set;
}

/// The library objects one run shares: the same catalog, simulated
/// cluster and service options matopt_serve starts with, set explicitly.
struct Env {
  matopt::Catalog catalog;
  matopt::ClusterConfig cluster = matopt::SimSqlProfile(kClusterWorkers);
  matopt::CostModel model = matopt::CostModel::Analytic(cluster);
  matopt::serve::ServeOptions serve_options = [] {
    matopt::serve::ServeOptions options;
    options.cache_entries = 64;
    options.cache_shards = 8;
    return options;
  }();

  /// Executor with every option set here, never from MATOPT_* variables.
  matopt::PlanExecutor Executor(int dist_workers) const {
    matopt::PlanExecutor executor(catalog, cluster);
    executor.set_zero_copy(true);
    executor.set_fusion(true);
    executor.set_dist_workers(dist_workers);
    return executor;
  }
};

struct Program {
  std::string name;
  std::string source;
  matopt::ParsedProgram parsed;
  std::map<int, std::string> sink_names;  // original sink vertex -> name
  bool executable = false;  // within the service's execute cap
};

Result<std::vector<Program>> LoadPrograms(const std::string& workload,
                                          const Env& env) {
  std::vector<Program> programs;
  for (const ProgramSource& src : ProgramSet(workload)) {
    std::ifstream in(src.path);
    if (!in) return Status::NotFound("cannot read program " + src.path);
    std::ostringstream text;
    text << in.rdbuf();
    Program p;
    p.name = src.name;
    p.source = text.str();
    auto parsed = matopt::ParseProgramChecked(p.source, env.catalog,
                                              env.cluster);
    if (!parsed.ok()) {
      return Status::InvalidArgument(src.path + ": " +
                                     parsed.status().ToString());
    }
    p.parsed = std::move(parsed).value();
    // The service reports a sink under the first name (in map order) bound
    // to its vertex; mirror that so checksums compare by name.
    for (int out : p.parsed.outputs) {
      for (const auto& [name, vertex] : p.parsed.names) {
        if (vertex == out) {
          p.sink_names.emplace(out, name);
          break;
        }
      }
    }
    double entries = 0.0;
    const ComputeGraph& g = p.parsed.graph;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (g.vertex(v).op == OpKind::kInput) {
        entries += static_cast<double>(g.vertex(v).type.NumEntries());
      }
    }
    p.executable = entries <= env.serve_options.max_execute_entries;
    programs.push_back(std::move(p));
  }
  return programs;
}

/// The cached plan a service holds for `key`. The service exposes its
/// cache read-only; Lookup only bumps LRU order and the hit counter, both
/// under the shard mutex.
std::shared_ptr<const CachedPlan> PlanOf(OptimizerService& service,
                                         const matopt::serve::GraphKey& key) {
  return const_cast<matopt::serve::PlanCache&>(service.cache()).Lookup(key);
}

Result<std::unordered_map<int, Relation>> MakeRelations(
    const ComputeGraph& graph,
    const std::map<std::string, DenseMatrix>& named, const Env& env) {
  std::unordered_map<int, Relation> relations;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const matopt::Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    auto it = named.find(vx.name);
    if (it == named.end()) return Status::NotFound("no input " + vx.name);
    MATOPT_ASSIGN_OR_RETURN(Relation rel,
                            matopt::MakeRelation(it->second, vx.input_format,
                                                 env.cluster));
    relations.emplace(v, std::move(rel));
  }
  return relations;
}

/// Name of a sink vertex: the program's output name (as the service
/// reports it), else the vertex's own name, else "v<id>".
std::string SinkName(const Program& program, const ComputeGraph& graph,
                     int vertex, int original) {
  auto named = program.sink_names.find(original);
  if (named != program.sink_names.end()) return named->second;
  if (!graph.vertex(vertex).name.empty()) return graph.vertex(vertex).name;
  return "v" + std::to_string(vertex);
}

/// Sinks of an execution of `entry`, by name.
Result<SinkSet> CollectSinks(const Program& program, const CachedPlan& entry,
                             const ExecResult& run) {
  std::map<int, int> original_of;  // chosen-graph vertex -> program vertex
  for (size_t v = 0; v < entry.vertex_map.size(); ++v) {
    if (entry.vertex_map[v] >= 0) {
      original_of.emplace(entry.vertex_map[v], static_cast<int>(v));
    }
  }
  SinkSet sinks;
  for (const auto& [vertex, relation] : run.sinks) {
    auto original = original_of.find(vertex);
    const std::string name = SinkName(
        program, entry.graph, vertex,
        original == original_of.end() ? -1 : original->second);
    MATOPT_ASSIGN_OR_RETURN(DenseMatrix dense,
                            matopt::MaterializeDense(relation));
    sinks.emplace(name, std::move(dense));
  }
  return sinks;
}

/// The fuzz reference interpreter on the original, unrewritten graph.
Result<SinkSet> ReferenceSinks(
    const Program& program, const std::map<std::string, DenseMatrix>& named) {
  const ComputeGraph& graph = program.parsed.graph;
  std::map<int, DenseMatrix> inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (graph.vertex(v).op == OpKind::kInput) {
      inputs.emplace(v, named.at(graph.vertex(v).name));
    }
  }
  MATOPT_ASSIGN_OR_RETURN(auto values,
                          matopt::fuzz::EvaluateReference(graph, inputs));
  SinkSet sinks;
  for (auto& [vertex, value] : values) {
    sinks.emplace(SinkName(program, graph, vertex, vertex), std::move(value));
  }
  return sinks;
}

SinkSums Checksums(const SinkSet& sinks) {
  SinkSums sums;
  for (const auto& [name, m] : sinks) {
    sums.emplace_back(name, matopt::serve::DenseChecksum(m.data(), m.size()));
  }
  return sums;  // std::map order == sorted by name, like the service
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Rotates the calling thread over the CPUs it may run on during set-up,
/// and restores its affinity when it goes out of scope. A single-threaded
/// set-up runs up to 1.7x slower on a core a neighbour is busy on;
/// rotating makes every run sample every core. Each CPU keeps the thread
/// for its share of kMinSetupSeconds (at least one set-up), so set-ups do
/// not start on a cold cache every time.
class SetupPinning {
 public:
  SetupPinning() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~SetupPinning() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  SetupPinning(const SetupPinning&) = delete;
  SetupPinning& operator=(const SetupPinning&) = delete;

  /// Pins for the next set-up; returns the CPU, or -1 when unpinned.
  int Next() {
    if (cpus_.empty()) return -1;
    const double share = kMinSetupSeconds / static_cast<double>(cpus_.size());
    if (slot_ < 0 || Since(slot_start_) >= share) {
      ++slot_;
      slot_start_ = Clock::now();
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[static_cast<size_t>(slot_) % cpus_.size()], &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    return pinned_ ? cpus_[static_cast<size_t>(slot_) % cpus_.size()] : -1;
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  int slot_ = -1;
  Clock::time_point slot_start_;
  bool pinned_ = false;
};

/// A warmed plan with its set-up inputs (warm_exec).
struct WarmPlan {
  std::shared_ptr<const CachedPlan> entry;
  std::map<std::string, DenseMatrix> named;
  std::unordered_map<int, Relation> relations;
  double sim_seconds = 0.0;
};

/// The two executions of one warm_exec request, single-node and sharded,
/// and the kernel counters accumulated over both.
struct WarmRun {
  Result<ExecResult> local = Status::Internal("not executed");
  Result<ExecResult> sharded = Status::Internal("not executed");
  matopt::KernelCounters kernels;
};

/// Result of the traced replay of OptimizeWithRewrites.
struct TracedPlan {
  ComputeGraph graph;
  PlanResult plan;
  std::vector<int> vertex_map;
  int candidates = 1;
  bool budget_hit = false;
  bool rewritten = false;
  int64_t states = 0;
  int beam_pruned = 0;
};

class Runner {
 public:
  explicit Runner(const BenchOptions& options)
      : options_(options), tracer_(options.trace) {
    result_.workload = options.workload;
  }

  Result<WorkloadResult> Run();

 private:
  bool cold() const { return options_.workload == "cold_plan"; }
  uint64_t input_seed() const { return matopt::DeriveSeed(options_.seed, 1); }
  uint64_t order_seed(int round) const {
    return matopt::DeriveSeed(matopt::DeriveSeed(options_.seed, 2), round);
  }

  Status Setup();
  Status SetupOnce();  // one timed set-up
  void Loop();
  void RunOne(int p, bool traced);
  void ColdRequest(int p);
  void WarmRequest(int p);
  void TracedColdRequest(int p);
  void TracedWarmRequest(int p);
  Status TracedWarmExecute(int p, std::shared_ptr<const CachedPlan>* entry,
                           WarmRun* run);
  Status VerifyCold(int p);
  Status VerifyWarm(int p);
  void TracedSetupPlan(int p);
  Result<TracedPlan> PlanTraced(const ComputeGraph& graph);
  Result<TracedPlan> TracedPlanRequest(int p);
  Result<SinkSums> TracedColdExecute(int p, TracedPlan traced);
  void RecordError(int p, const std::string& status, const std::string& what);
  bool SamePlan(int p, double fused_cost);
  Status CheckExecution(int p, const CachedPlan& entry, const WarmRun& run);
  void RecordExecution(int p, const ExecResult& run,
                       const ExecResult* sharded,
                       const matopt::KernelCounters& kernels);
  void RecordPlanCounters(int p, const TracedPlan& traced);
  void Verify();
  void ComputeLayers();

  int64_t NewRequest(int p) {
    const int64_t id = next_request_++;
    request_program_[id] = p;
    tracer_.StartRequest(id);
    return id;
  }
  void Sample(int p, const std::string& name, double value) {
    result_.rows[p].samples[name].push_back(value);
  }

  BenchOptions options_;
  Env env_;
  Tracer tracer_;
  WorkloadResult result_;
  std::vector<Program> programs_;

  // warm_exec state.
  std::unique_ptr<OptimizerService> service_;
  std::vector<WarmPlan> warm_;
  // Single-node first execution per program; every later execution of the
  // program, on either engine, must reproduce it bit for bit.
  std::vector<SinkSet> expected_sinks_;

  // cold_plan state: the first service per executed program (its cache
  // holds the plan the verification re-executes) and its checksums.
  std::map<int, std::unique_ptr<OptimizerService>> first_service_;
  std::map<int, matopt::serve::GraphKey> first_key_;
  std::map<int, SinkSums> checksums_;
  std::map<int, double> first_cost_;

  int64_t next_request_ = 0;
  std::map<int64_t, int> request_program_;
  int64_t lookups_ = 0;
  int64_t lookup_hits_ = 0;
};

Status Runner::SetupOnce() {
  MATOPT_ASSIGN_OR_RETURN(programs_, LoadPrograms(options_.workload, env_));
  if (cold()) return Status::OK();
  // Warm every plan through the service, then make the inputs.
  service_ = std::make_unique<OptimizerService>(env_.catalog, env_.cluster,
                                                env_.serve_options);
  warm_.assign(programs_.size(), WarmPlan{});
  for (size_t p = 0; p < programs_.size(); ++p) {
    matopt::serve::ServeRequest request;
    request.program = programs_[p].source;
    auto response = service_->Handle(request);
    if (!response.ok()) {
      return Status::Internal(programs_[p].name + " fails to plan: " +
                              response.status().ToString());
    }
    WarmPlan& warm = warm_[p];
    warm.entry = PlanOf(*service_, response.value().key);
    if (warm.entry == nullptr) {
      return Status::Internal(programs_[p].name + " missing from cache");
    }
    warm.sim_seconds = response.value().sim_seconds;
    MATOPT_ASSIGN_OR_RETURN(
        warm.named, MakeInputs(programs_[p].parsed.graph, input_seed()));
    MATOPT_ASSIGN_OR_RETURN(
        warm.relations, MakeRelations(warm.entry->graph, warm.named, env_));
  }
  return Status::OK();
}

Status Runner::Setup() {
  {
    // The thread pool already exists, so pinning this thread leaves its
    // workers free to run anywhere; the scope restores the affinity.
    SetupPinning pinning;
    const Clock::time_point first = Clock::now();
    for (int rep = 0; rep < kMinSetupReps ||
                      (rep < kMaxSetupReps && Since(first) < kMinSetupSeconds);
         ++rep) {
      // Each set-up starts from nothing, as a new process would.
      programs_.clear();
      warm_.clear();
      service_.reset();
      result_.setup_cpus.push_back(pinning.Next());
      const Clock::time_point start = Clock::now();
      MATOPT_RETURN_IF_ERROR(SetupOnce());
      result_.setup_seconds.push_back(Since(start));
    }
  }

  result_.rows.assign(programs_.size(), ProgramRow{});
  for (size_t p = 0; p < programs_.size(); ++p) {
    result_.rows[p].name = programs_[p].name;
    result_.rows[p].executed = !cold() || programs_[p].executable;
    if (!cold()) {
      result_.rows[p].fused_cost = warm_[p].entry->plan.fused_cost;
      result_.rows[p].sim_seconds = warm_[p].sim_seconds;
    }
  }
  if (cold()) {
    // Untimed: one cold request first, so the timed ones do not pay the
    // process's first heap growth (a long-lived service has paid it).
    OptimizerService service(env_.catalog, env_.cluster, env_.serve_options);
    matopt::serve::ServeRequest request;
    request.program = programs_.front().source;
    (void)service.Handle(request);
    return Status::OK();
  }

  // Untimed: first execution per program on both engines (fills the
  // buffer pool and starts the sharded runtime). The single-node sinks are
  // the ones every request must reproduce bit for bit.
  expected_sinks_.assign(programs_.size(), SinkSet{});
  for (size_t p = 0; p < programs_.size(); ++p) {
    const CachedPlan& entry = *warm_[p].entry;
    for (int workers : {kDistWorkers, 0}) {
      auto run = env_.Executor(workers).Execute(
          entry.graph, entry.plan.annotation, warm_[p].relations);
      if (!run.ok()) {
        return Status::Internal(programs_[p].name + " fails to execute on " +
                                std::to_string(workers) + " workers: " +
                                run.status().ToString());
      }
      if (workers > 0) continue;
      MATOPT_ASSIGN_OR_RETURN(expected_sinks_[p],
                              CollectSinks(programs_[p], entry, run.value()));
    }
  }
  if (tracer_.enabled()) {
    for (size_t p = 0; p < programs_.size(); ++p) {
      TracedSetupPlan(static_cast<int>(p));
    }
  }
  return Status::OK();
}

void Runner::RunOne(int p, bool traced) {
  if (cold()) {
    traced ? TracedColdRequest(p) : ColdRequest(p);
  } else {
    traced ? TracedWarmRequest(p) : WarmRequest(p);
  }
}

void Runner::Loop() {
  const Clock::time_point start = Clock::now();
  const int n = static_cast<int>(programs_.size());
  // Whole rounds only, so every run sends the same request mix; at least
  // kMinRounds, so every program's repetitions are compared bit for bit.
  // A traced round sends every program twice, so one is enough there.
  const int min_rounds = tracer_.enabled() ? 1 : kMinRounds;
  for (int round = 0; round < min_rounds || Since(start) < options_.seconds;
       ++round) {
    for (int p : RequestOrder(order_seed(round), n)) {
      if (!tracer_.enabled()) {
        RunOne(p, false);
      } else {
        // Both paths per slot, alternating which goes first.
        RunOne(p, round % 2 == 1);
        RunOne(p, round % 2 == 0);
      }
    }
    // Read when the rounds every run completes are done, so the figure
    // does not grow with how many requests fit in the run.
    if (round == min_rounds - 1) {
      result_.peak_rss_mb = PeakRssMb();
      result_.peak_rss_rounds = min_rounds;
    }
  }
}

void Runner::ColdRequest(int p) {
  const Program& program = programs_[p];
  matopt::serve::ServeRequest request;
  request.program = program.source;
  request.execute = true;
  request.input_seed = input_seed();

  const Clock::time_point start = Clock::now();
  auto service = std::make_unique<OptimizerService>(
      env_.catalog, env_.cluster, env_.serve_options);
  auto response = service->Handle(request);
  const double latency = Since(start);
  // The latency percentiles are over requests that returned a result; a
  // request that errored counts in ok_ratio instead.
  if (response.ok()) result_.latencies.push_back(latency);
  result_.rows[p].latencies.push_back(latency);
  result_.busy_seconds += latency;
  ++lookups_;

  const matopt::serve::GraphKey key = matopt::serve::MakeGraphKey(
      program.parsed.graph, env_.cluster, env_.serve_options.optimizer,
      env_.serve_options.rewrite);
  if (auto entry = PlanOf(*service, key); entry != nullptr) {
    result_.rows[p].fused_cost = entry->plan.fused_cost;
    if (!SamePlan(p, entry->plan.fused_cost)) return;
  }
  if (!response.ok()) {
    RecordError(p, response.status().ToString(), "");
    return;
  }
  const matopt::serve::ServeResponse& r = response.value();
  result_.rows[p].sim_seconds = r.sim_seconds;
  if (r.cache != matopt::serve::CacheOutcome::kMiss) {
    result_.tally.Fail(program.name, "a fresh service did not miss");
    return;
  }
  if (r.executed != program.executable) {
    result_.tally.Fail(program.name, r.executed ? "executed past the cap"
                                                : "did not execute");
    return;
  }
  if (r.executed) {
    auto [it, first] = checksums_.emplace(p, r.sink_checksums);
    if (!first && it->second != r.sink_checksums) {
      result_.tally.Fail(program.name,
                         "sink checksums differ from the first request");
      return;
    }
    if (first_service_.count(p) == 0) {
      first_service_[p] = std::move(service);
      first_key_[p] = r.key;
    }
  }
  result_.tally.Ok(program.name);
}

void Runner::WarmRequest(int p) {
  const Program& program = programs_[p];
  matopt::serve::ServeRequest request;
  request.program = program.source;
  const matopt::PlanExecutor local = env_.Executor(0);
  const matopt::PlanExecutor sharded = env_.Executor(kDistWorkers);

  const Clock::time_point start = Clock::now();
  auto response = service_->Handle(request);
  std::shared_ptr<const CachedPlan> entry;
  WarmRun run;
  if (response.ok()) {
    entry = PlanOf(*service_, response.value().key);
    if (entry != nullptr) {
      run.local = local.Execute(entry->graph, entry->plan.annotation,
                                warm_[p].relations);
      run.sharded = sharded.Execute(entry->graph, entry->plan.annotation,
                                    warm_[p].relations);
    }
  }
  const double latency = Since(start);
  if (response.ok() && run.local.ok() && run.sharded.ok()) {
    result_.latencies.push_back(latency);
  }
  result_.rows[p].latencies.push_back(latency);
  result_.busy_seconds += latency;

  if (!response.ok()) {
    result_.tally.Fail(program.name, response.status().ToString());
    return;
  }
  ++lookups_;
  if (response.value().cache == matopt::serve::CacheOutcome::kHit) {
    ++lookup_hits_;
  } else {
    result_.tally.Fail(program.name, "warmed plan was not a cache hit");
    return;
  }
  if (entry == nullptr) {
    result_.tally.Fail(program.name, "plan missing from the cache");
    return;
  }
  const Status checked = CheckExecution(p, *entry, run);
  if (!checked.ok()) {
    result_.tally.Fail(program.name, checked.message());
    return;
  }
  result_.tally.Ok(program.name);
}

/// Both executions of a warm request must reproduce the program's
/// single-node first execution bit for bit.
Status Runner::CheckExecution(int p, const CachedPlan& entry,
                              const WarmRun& run) {
  const std::pair<const char*, const Result<ExecResult>*> runs[] = {
      {"single-node", &run.local}, {"sharded", &run.sharded}};
  for (const auto& [engine, result] : runs) {
    if (!result->ok()) {
      return Status::Internal(std::string(engine) + ": " +
                              result->status().ToString());
    }
    MATOPT_ASSIGN_OR_RETURN(SinkSet sinks,
                            CollectSinks(programs_[p], entry, result->value()));
    std::string why;
    if (!SinksIdentical(expected_sinks_[p], sinks, &why)) {
      return Status::Internal(std::string(engine) +
                              " execution differs from the single-node "
                              "first one: " + why);
    }
  }
  return Status::OK();
}

Result<TracedPlan> Runner::PlanTraced(const ComputeGraph& graph) {
  // OptimizeWithRewrites, replayed call by call: the original graph, then
  // every rewrite candidate, each through Optimize (fusion planning off)
  // and PlanFusion; the lowest fused cost wins, ties to the earlier.
  const matopt::OptimizerOptions& options = env_.serve_options.optimizer;
  matopt::OptimizerOptions search = options;
  search.plan_fusion = false;
  TracedPlan out;
  auto plan_one = [&](const ComputeGraph& g) -> Result<PlanResult> {
    Result<PlanResult> r = Status::Internal("unplanned");
    {
      ScopedSpan span(tracer_, "opt.search");
      r = matopt::Optimize(g, env_.catalog, env_.model, env_.cluster, search);
    }
    if (!r.ok()) return r;
    ScopedSpan span(tracer_, "fusion.plan");
    matopt::PlanFusion(g, env_.catalog, env_.model, env_.cluster, options,
                       &r.value());
    out.states += r.value().states_explored;
    out.beam_pruned += r.value().beam_pruned ? 1 : 0;
    return r;
  };
  MATOPT_ASSIGN_OR_RETURN(out.plan, plan_one(graph));
  out.graph = graph;
  out.vertex_map.resize(graph.num_vertices());
  for (int v = 0; v < graph.num_vertices(); ++v) out.vertex_map[v] = v;
  if (!env_.serve_options.rewrite.enable || !matopt::RewriteEnabled()) {
    return out;
  }
  matopt::RewriteSearchResult search_result;
  {
    ScopedSpan span(tracer_, "rewrite.enumerate");
    search_result =
        matopt::EnumerateRewrites(graph, env_.serve_options.rewrite);
  }
  out.candidates = static_cast<int>(search_result.candidates.size());
  out.budget_hit = search_result.budget_hit;
  for (size_t i = 1; i < search_result.candidates.size(); ++i) {
    matopt::RewriteCandidate& cand = search_result.candidates[i];
    Result<PlanResult> r = plan_one(cand.graph);
    if (!r.ok()) continue;
    if (r.value().fused_cost < out.plan.fused_cost) {
      out.graph = std::move(cand.graph);
      out.plan = std::move(r).value();
      out.vertex_map = std::move(cand.vertex_map);
      out.rewritten = true;
    }
  }
  return out;
}

void Runner::RecordPlanCounters(int p, const TracedPlan& traced) {
  Sample(p, "rewrite.candidates", traced.candidates);
  Sample(p, "rewrite.budget_hits", traced.budget_hit ? 1 : 0);
  Sample(p, "rewrite.won", traced.rewritten ? 1 : 0);
  Sample(p, "opt.states_explored", static_cast<double>(traced.states));
  Sample(p, "opt.beam_pruned", traced.beam_pruned);
  Sample(p, "fusion.groups",
         static_cast<double>(traced.plan.annotation.fusion.groups.size()));
}

void Runner::RecordExecution(int p, const ExecResult& run,
                             const ExecResult* sharded,
                             const matopt::KernelCounters& kernels) {
  // Per request: the memory counters of its executions add up; the dist
  // counters come from the sharded one.
  matopt::MemoryStats mem = run.stats.memory;
  if (sharded != nullptr) {
    const matopt::MemoryStats& more = sharded->stats.memory;
    mem.bytes_copied += more.bytes_copied;
    mem.bytes_moved += more.bytes_moved;
    mem.fused_bytes_avoided += more.fused_bytes_avoided;
    mem.pool_hits += more.pool_hits;
    mem.pool_misses += more.pool_misses;
  }
  Sample(p, "engine.bytes_copied", mem.bytes_copied);
  Sample(p, "engine.bytes_moved", mem.bytes_moved);
  Sample(p, "engine.fused_bytes_avoided", mem.fused_bytes_avoided);
  Sample(p, "pool.hits", static_cast<double>(mem.pool_hits));
  Sample(p, "pool.misses", static_cast<double>(mem.pool_misses));
  Sample(p, "la.gemm_s", kernels.gemm_seconds);
  Sample(p, "la.gemm_flops", kernels.gemm_flops);
  Sample(p, "la.elem_bytes", kernels.elem_bytes);
  if (sharded != nullptr) {
    const matopt::DistStats& dist = sharded->stats.dist;
    Sample(p, "dist.bytes_shuffled", dist.bytes_shuffled);
    Sample(p, "dist.bytes_broadcast", dist.bytes_broadcast);
    Sample(p, "dist.messages", static_cast<double>(dist.messages));
    Sample(p, "dist.max_shard_skew", dist.max_shard_skew);
    double busy = 0.0;
    for (double b : dist.worker_busy_seconds) busy = std::max(busy, b);
    Sample(p, "dist.worker_busy_max_s", busy);
  }
}

void Runner::RecordError(int p, const std::string& status,
                         const std::string& what) {
  const std::string known = KnownFailure(programs_[p].name);
  if (!known.empty() && status.find(known) != std::string::npos) {
    result_.tally.Known(programs_[p].name, status);
  } else {
    result_.tally.Fail(programs_[p].name, what + status);
  }
}

bool Runner::SamePlan(int p, double fused_cost) {
  auto [it, first] = first_cost_.emplace(p, fused_cost);
  if (first || it->second == fused_cost) return true;
  result_.tally.Fail(programs_[p].name,
                     "chose a plan of another cost than its first request");
  return false;
}

Result<TracedPlan> Runner::TracedPlanRequest(int p) {
  // Handle's miss path, call by call: parse, key, lookup in a fresh
  // service's cache, plan search, dry run.
  const Program& program = programs_[p];
  Result<matopt::ParsedProgram> parsed = Status::Internal("unparsed");
  {
    ScopedSpan span(tracer_, "frontend.parse");
    parsed = matopt::ParseProgramChecked(program.source, env_.catalog,
                                         env_.cluster);
  }
  MATOPT_RETURN_IF_ERROR(parsed.status());
  const ComputeGraph& graph = parsed.value().graph;
  matopt::serve::GraphKey key;
  {
    ScopedSpan span(tracer_, "serve.key");
    key = matopt::serve::MakeGraphKey(graph, env_.cluster,
                                      env_.serve_options.optimizer,
                                      env_.serve_options.rewrite);
  }
  {
    ScopedSpan span(tracer_, "serve.lookup");
    OptimizerService service(env_.catalog, env_.cluster, env_.serve_options);
    ++lookups_;
    if (PlanOf(service, key) != nullptr) ++lookup_hits_;
  }
  MATOPT_ASSIGN_OR_RETURN(TracedPlan traced, PlanTraced(graph));
  RecordPlanCounters(p, traced);
  ScopedSpan span(tracer_, "engine.dry_run");
  MATOPT_RETURN_IF_ERROR(
      env_.Executor(0).DryRun(traced.graph, traced.plan.annotation).status());
  return traced;
}

Result<SinkSums> Runner::TracedColdExecute(int p, TracedPlan traced) {
  // Handle's execute path: fabricate inputs, execute, checksum the sinks.
  std::unordered_map<int, Relation> inputs;
  {
    ScopedSpan span(tracer_, "serve.inputs");
    MATOPT_ASSIGN_OR_RETURN(auto named, MakeInputs(traced.graph, input_seed()));
    MATOPT_ASSIGN_OR_RETURN(inputs, MakeRelations(traced.graph, named, env_));
  }
  const matopt::KernelCounters before = matopt::KernelCountersSnapshot();
  Result<ExecResult> run = Status::Internal("not executed");
  {
    ScopedSpan span(tracer_, "engine.execute");
    run = env_.Executor(0).Execute(traced.graph, traced.plan.annotation,
                                   std::move(inputs));
  }
  const matopt::KernelCounters kernels =
      matopt::KernelCountersDelta(before, matopt::KernelCountersSnapshot());
  MATOPT_RETURN_IF_ERROR(run.status());
  RecordExecution(p, run.value(), nullptr, kernels);
  ScopedSpan span(tracer_, "serve.sinks");
  CachedPlan view;
  view.graph = std::move(traced.graph);
  view.vertex_map = std::move(traced.vertex_map);
  MATOPT_ASSIGN_OR_RETURN(SinkSet sinks,
                          CollectSinks(programs_[p], view, run.value()));
  return Checksums(sinks);
}

void Runner::TracedColdRequest(int p) {
  const Program& program = programs_[p];
  NewRequest(p);
  const int root = tracer_.Begin("request");
  Result<TracedPlan> traced = TracedPlanRequest(p);
  const double cost = traced.ok() ? traced.value().plan.fused_cost : 0.0;
  Result<SinkSums> sums = SinkSums{};
  if (!traced.ok()) sums = traced.status();
  if (traced.ok() && program.executable) {
    sums = TracedColdExecute(p, std::move(traced).value());
  }
  tracer_.End(root);
  const Span& span = tracer_.spans()[root];
  result_.rows[p].traced_latencies.push_back(span.end - span.start);
  result_.busy_seconds += span.end - span.start;

  if (!sums.ok()) {
    RecordError(p, sums.status().ToString(), "traced path: ");
    return;
  }
  if (!SamePlan(p, cost)) return;
  if (program.executable) {
    auto [it, first] = checksums_.emplace(p, sums.value());
    if (!first && it->second != sums.value()) {
      result_.tally.Fail(program.name,
                         "traced sink checksums differ from Handle's");
      return;
    }
  }
  result_.tally.Ok(program.name);
}

void Runner::TracedSetupPlan(int p) {
  // The warm workloads plan in set-up; replay each plan search traced
  // (outside the timed set-ups) so their planning layers are measured too.
  NewRequest(p);
  const int root = tracer_.Begin("request");
  Result<TracedPlan> traced = TracedPlanRequest(p);
  tracer_.End(root);
  if (!traced.ok()) {
    result_.tally.Fail(programs_[p].name,
                       "traced set-up plan: " + traced.status().ToString());
  } else if (traced.value().plan.fused_cost !=
             warm_[p].entry->plan.fused_cost) {
    result_.tally.Fail(programs_[p].name,
                       "traced plan search chose another plan");
  }
}

Status Runner::TracedWarmExecute(int p,
                                 std::shared_ptr<const CachedPlan>* entry,
                                 WarmRun* run) {
  // Handle's hit path, call by call, then the two executions.
  Result<matopt::ParsedProgram> parsed = Status::Internal("unparsed");
  {
    ScopedSpan span(tracer_, "frontend.parse");
    parsed = matopt::ParseProgramChecked(programs_[p].source, env_.catalog,
                                         env_.cluster);
  }
  MATOPT_RETURN_IF_ERROR(parsed.status());
  matopt::serve::GraphKey key;
  {
    ScopedSpan span(tracer_, "serve.key");
    key = matopt::serve::MakeGraphKey(parsed.value().graph, env_.cluster,
                                      env_.serve_options.optimizer,
                                      env_.serve_options.rewrite);
  }
  {
    ScopedSpan span(tracer_, "serve.lookup");
    *entry = PlanOf(*service_, key);
  }
  ++lookups_;
  if (*entry == nullptr) {
    return Status::NotFound("warmed plan was not a cache hit");
  }
  ++lookup_hits_;
  const CachedPlan& plan = **entry;
  {
    ScopedSpan span(tracer_, "engine.dry_run");
    MATOPT_RETURN_IF_ERROR(
        env_.Executor(0).DryRun(plan.graph, plan.plan.annotation).status());
  }
  const matopt::KernelCounters before = matopt::KernelCountersSnapshot();
  {
    ScopedSpan span(tracer_, "engine.execute");
    run->local = env_.Executor(0).Execute(plan.graph, plan.plan.annotation,
                                          warm_[p].relations);
  }
  {
    ScopedSpan span(tracer_, "dist.execute");
    run->sharded = env_.Executor(kDistWorkers)
                       .Execute(plan.graph, plan.plan.annotation,
                                warm_[p].relations);
  }
  run->kernels =
      matopt::KernelCountersDelta(before, matopt::KernelCountersSnapshot());
  return Status::OK();
}

void Runner::TracedWarmRequest(int p) {
  NewRequest(p);
  std::shared_ptr<const CachedPlan> entry;
  WarmRun run;
  const int root = tracer_.Begin("request");
  Status status = TracedWarmExecute(p, &entry, &run);
  tracer_.End(root);
  const Span& span = tracer_.spans()[root];
  result_.rows[p].traced_latencies.push_back(span.end - span.start);
  result_.busy_seconds += span.end - span.start;
  if (run.local.ok() && run.sharded.ok()) {
    RecordExecution(p, run.local.value(), &run.sharded.value(), run.kernels);
  }
  if (status.ok()) status = CheckExecution(p, *entry, run);
  if (!status.ok()) {
    result_.tally.Fail(programs_[p].name, "traced path: " + status.message());
    return;
  }
  result_.tally.Ok(programs_[p].name);
}

Status Runner::VerifyCold(int p) {
  // Handle returns only checksums: re-execute the first request's plan on
  // the same inputs, match its checksums, then check the values.
  const Program& program = programs_[p];
  auto service = first_service_.find(p);
  if (service == first_service_.end()) return Status::OK();  // never ran ok
  std::shared_ptr<const CachedPlan> entry =
      PlanOf(*service->second, first_key_[p]);
  if (entry == nullptr) return Status::NotFound("plan left the cache");
  MATOPT_ASSIGN_OR_RETURN(auto named,
                          MakeInputs(program.parsed.graph, input_seed()));
  MATOPT_ASSIGN_OR_RETURN(auto relations,
                          MakeRelations(entry->graph, named, env_));
  MATOPT_ASSIGN_OR_RETURN(
      ExecResult run, env_.Executor(0).Execute(entry->graph,
                                               entry->plan.annotation,
                                               std::move(relations)));
  MATOPT_ASSIGN_OR_RETURN(SinkSet sinks, CollectSinks(program, *entry, run));
  if (Checksums(sinks) != checksums_[p]) {
    return Status::Internal("Handle's sink checksums do not match a "
                            "re-execution of its plan on the same inputs");
  }
  MATOPT_ASSIGN_OR_RETURN(SinkSet reference, ReferenceSinks(program, named));
  std::string why;
  if (!SinksClose(reference, sinks, kRtol, kAtol, &why)) {
    return Status::Internal("vs reference: " + why);
  }
  return Status::OK();
}

Status Runner::VerifyWarm(int p) {
  const Program& program = programs_[p];
  MATOPT_ASSIGN_OR_RETURN(SinkSet reference,
                          ReferenceSinks(program, warm_[p].named));
  std::string why;
  if (!SinksClose(reference, expected_sinks_[p], kRtol, kAtol, &why)) {
    return Status::Internal("vs reference: " + why);
  }
  return Status::OK();
}

void Runner::Verify() {
  // Outside set-up and the timed loop: the reference once per program.
  for (int p = 0; p < static_cast<int>(programs_.size()); ++p) {
    if (!result_.rows[p].executed) continue;
    const Status status = cold() ? VerifyCold(p) : VerifyWarm(p);
    if (!status.ok()) {
      result_.tally.FailProgram(programs_[p].name, status.message());
    }
  }
}

/// How a per-layer metric folds per-program medians into one number.
enum class Fold { kSum, kMax };

void Runner::ComputeLayers() {
  // Self time per request and layer, then per program (median over the
  // requests that ran the layer).
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<double> self = SelfTimes(spans);
  std::map<int64_t, std::map<std::string, double>> per_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    per_request[spans[i].request][spans[i].name] += self[i];
  }
  for (const auto& [request, layers] : per_request) {
    const int p = request_program_.at(request);
    for (const auto& [name, seconds] : layers) Sample(p, name + "_s", seconds);
  }

  std::map<std::string, double>& out = result_.layers;
  auto fold = [&](const std::string& sample, Fold how) {
    double total = 0.0;
    for (const ProgramRow& row : result_.rows) {
      auto it = row.samples.find(sample);
      if (it == row.samples.end() || it->second.empty()) continue;
      const double m = Median(it->second);
      total = how == Fold::kSum ? total + m : std::max(total, m);
    }
    return total;
  };
  for (const char* name :
       {"frontend.parse_s", "serve.key_s", "rewrite.enumerate_s",
        "rewrite.candidates", "rewrite.budget_hits", "rewrite.won",
        "opt.search_s", "opt.states_explored", "opt.beam_pruned",
        "fusion.plan_s", "fusion.groups", "engine.dry_run_s",
        "engine.execute_s", "dist.execute_s", "engine.bytes_copied",
        "engine.bytes_moved",
        "engine.fused_bytes_avoided", "la.gemm_s", "la.elem_bytes",
        "dist.bytes_shuffled", "dist.bytes_broadcast", "dist.messages",
        "dist.worker_busy_max_s"}) {
    out[name] = fold(name, Fold::kSum);
  }
  out["dist.max_shard_skew"] = fold("dist.max_shard_skew", Fold::kMax);
  const double gemm_s = fold("la.gemm_s", Fold::kSum);
  out["la.gemm_gflops_per_s"] =
      gemm_s > 0.0 ? fold("la.gemm_flops", Fold::kSum) / gemm_s / 1e9 : 0.0;
  double hits = 0.0;
  double lookups = 0.0;
  for (const ProgramRow& row : result_.rows) {
    for (const char* key : {"pool.hits", "pool.misses"}) {
      auto it = row.samples.find(key);
      if (it == row.samples.end()) continue;
      for (double v : it->second) {
        lookups += v;
        if (std::string(key) == "pool.hits") hits += v;
      }
    }
  }
  out["pool.hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
  out["serve.hit_ratio"] =
      lookups_ > 0 ? static_cast<double>(lookup_hits_) / lookups_ : 0.0;
  double traced = 0.0;
  double untraced = 0.0;
  for (const ProgramRow& row : result_.rows) {
    if (row.latencies.empty() || row.traced_latencies.empty()) continue;
    traced += Median(row.traced_latencies);
    untraced += Median(row.latencies);
  }
  out["trace.overhead_ratio"] = untraced > 0.0 ? traced / untraced : 0.0;
}

Result<WorkloadResult> Runner::Run() {
  MATOPT_RETURN_IF_ERROR(Setup());
  Loop();
  Verify();
  // Plan quality sums skip programs known to fail: their dry run never produces a simulated time,
  // and fixing them must not read as a loss.
  for (size_t p = 0; p < programs_.size(); ++p) {
    if (!KnownFailure(programs_[p].name).empty()) continue;
    result_.plan_cost += result_.rows[p].fused_cost;
    result_.plan_sim += result_.rows[p].sim_seconds;
  }
  if (tracer_.enabled()) {
    ComputeLayers();
    result_.spans = tracer_.spans();
  }
  return std::move(result_);
}

}  // namespace

uint64_t InputSeed(uint64_t request_seed, const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull ^ request_seed;
  for (char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h | 1;
}

Result<std::map<std::string, DenseMatrix>> MakeInputs(
    const ComputeGraph& graph, uint64_t seed) {
  std::map<std::string, DenseMatrix> inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const matopt::Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    if (matopt::BuiltinFormats()[vx.input_format].sparse()) {
      return Status::InvalidArgument("input " + vx.name +
                                     " is sparse; executed programs of the "
                                     "benchmark take dense inputs");
    }
    inputs.emplace(vx.name,
                   matopt::GaussianMatrix(vx.type.rows(), vx.type.cols(),
                                          InputSeed(seed, vx.name)));
  }
  return inputs;
}

bool SinksIdentical(const SinkSet& expected, const SinkSet& got,
                    std::string* why) {
  for (const auto& [name, want] : expected) {
    auto it = got.find(name);
    if (it == got.end()) {
      *why = "sink " + name + " missing";
      return false;
    }
    const DenseMatrix& have = it->second;
    if (have.rows() != want.rows() || have.cols() != want.cols() ||
        std::memcmp(have.data(), want.data(),
                    sizeof(double) * static_cast<size_t>(want.size())) != 0) {
      *why = "sink " + name + " is not bit-identical";
      return false;
    }
  }
  if (got.size() != expected.size()) {
    *why = "unexpected extra sinks";
    return false;
  }
  return true;
}

bool SinksClose(const SinkSet& reference, const SinkSet& got, double rtol,
                double atol, std::string* why) {
  for (const auto& [name, want] : reference) {
    auto it = got.find(name);
    if (it == got.end()) {
      *why = "sink " + name + " missing";
      return false;
    }
    if (!matopt::AllClose(it->second, want, rtol, atol)) {
      double diff = 0.0;
      if (it->second.size() == want.size()) {
        for (int64_t i = 0; i < want.size(); ++i) {
          diff = std::max(diff,
                          std::abs(it->second.data()[i] - want.data()[i]));
        }
      }
      std::ostringstream msg;
      msg << "sink " << name << " diverges, max abs diff " << diff;
      *why = msg.str();
      return false;
    }
  }
  return true;
}

void Tally::Ok(const std::string& program) {
  ++ok_;
  ++ok_by_program_[program];
  status_.emplace(program, "ok");
}

void Tally::Known(const std::string& program, const std::string& status) {
  ++known_;
  status_[program] = "known failure: " + status;
}

void Tally::Fail(const std::string& program, const std::string& why) {
  ++failed_;
  status_[program] = "FAILED";
  messages_.push_back(program + ": " + why);
}

void Tally::FailProgram(const std::string& program, const std::string& why) {
  const int64_t n = ok_by_program_[program];
  ok_ -= n;
  failed_ += n;
  ok_by_program_[program] = 0;
  status_[program] = "FAILED";
  messages_.push_back(program + ": " + why + " (" + std::to_string(n) +
                      " requests)");
}

double Tally::error_ratio() const {
  const int64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(known_ + failed_) / n;
}

std::string KnownFailure(const std::string& program) {
  // The chosen plan's dry run hits a format change the engine cannot
  // perform; see `explain examples/programs/sparse_logreg.mla`.
  if (program == "sparse_logreg") {
    return "transformation dense->sp-single-csr is infeasible for this "
           "relation";
  }
  return "";
}

Result<WorkloadResult> RunWorkload(const BenchOptions& options) {
  if (options.workload != "cold_plan" && options.workload != "warm_exec") {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  Runner runner(options);
  return runner.Run();
}

}  // namespace perfbench
