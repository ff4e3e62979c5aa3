#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/env.h"
#include "common/stopwatch.h"
#include "core/format/format.h"
#include "core/fusion/fusion.h"
#include "core/opt/annotation.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "frontend/frontend_lint.h"
#include "ml/generators.h"

namespace matopt {
namespace serve {

namespace {

/// Deterministic per-input seed: the request seed mixed with the input's
/// *name*, so dimension-only variants and rewritten graphs (which preserve
/// input names but may renumber vertices) draw comparable data.
uint64_t InputSeed(uint64_t request_seed, const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull ^ request_seed;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  return h | 1;  // generators treat 0 as degenerate; keep seeds nonzero
}

/// True when `a` and `b` are the same program modulo dimensions: vertex
/// for vertex (parser numbering is deterministic, so dimension-only edits
/// of one program text parse to the same order), same ops, argument wiring,
/// names, input formats, and scalars. The cheap exactness check behind the
/// param fingerprint — also the hash-collision guard.
bool StructureMatches(const ComputeGraph& a, const ComputeGraph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  for (int v = 0; v < a.num_vertices(); ++v) {
    const Vertex& va = a.vertex(v);
    const Vertex& vb = b.vertex(v);
    if (va.op != vb.op || va.inputs != vb.inputs || va.name != vb.name ||
        va.input_format != vb.input_format || va.scalar != vb.scalar) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kParamHit: return "param_hit";
  }
  return "unknown";
}

uint64_t DenseChecksum(const double* data, int64_t count) {
  uint64_t h = 0xCBF29CE484222325ull;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  for (int64_t i = 0; i < count * 8; ++i) {
    h = (h ^ bytes[i]) * 0x100000001B3ull;
  }
  return h;
}

int OptimizerService::DefaultCacheEntries(int configured) {
  std::optional<int64_t> env =
      EnvIntOrNull("MATOPT_SERVE_CACHE_ENTRIES", 1, 1 << 20);
  return env.has_value() ? static_cast<int>(*env) : configured;
}

OptimizerService::OptimizerService(const Catalog& catalog,
                                   ClusterConfig cluster, ServeOptions options)
    : catalog_(catalog),
      cluster_(std::move(cluster)),
      options_(std::move(options)),
      model_(CostModel::Analytic(cluster_)),
      cache_(DefaultCacheEntries(options_.cache_entries),
             options_.cache_shards) {}

void OptimizerService::SetTenantBudget(const std::string& tenant,
                                       TenantBudget budget) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant] = budget;
}

TenantBudget OptimizerService::BudgetFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? options_.default_budget : it->second;
}

Status OptimizerService::Admit(const std::string& tenant) {
  TenantBudget budget = BudgetFor(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  if (total_inflight_ >= options_.max_inflight) {
    return Status::OutOfMemory(
        "admission: service has " + std::to_string(total_inflight_) +
        " requests in flight (global cap " +
        std::to_string(options_.max_inflight) + ")");
  }
  int& inflight = tenant_inflight_[tenant];
  if (inflight >= budget.max_inflight) {
    return Status::OutOfMemory(
        "admission: tenant '" + tenant + "' has " + std::to_string(inflight) +
        " requests in flight (cap " + std::to_string(budget.max_inflight) +
        ")");
  }
  ++inflight;
  ++total_inflight_;
  return Status::OK();
}

void OptimizerService::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_inflight_.find(tenant);
  if (it != tenant_inflight_.end() && it->second > 0) --it->second;
  if (total_inflight_ > 0) --total_inflight_;
}

struct OptimizerService::AdmissionGuard {
  OptimizerService* service;
  std::string tenant;
  ~AdmissionGuard() { service->Release(tenant); }
};

ServeStats OptimizerService::Stats() const {
  ServeStats stats;
  PlanCacheStats cache = cache_.Stats();
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_evictions = cache.evictions;
  stats.param_hits = cache.param_hits;
  stats.param_rejects = cache.param_rejects;
  stats.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  stats.budget_rejects = budget_rejects_.load(std::memory_order_relaxed);
  stats.optimize_seconds_saved = cache.opt_seconds_saved;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.optimize_seconds = optimize_seconds_;
    stats.execute_seconds = execute_seconds_;
  }
  return stats;
}

std::shared_ptr<const CachedPlan> OptimizerService::TryParamReuse(
    const ComputeGraph& graph, const GraphKey& key,
    const std::shared_ptr<const CachedPlan>& donor,
    DiagnosticList* diagnostics) {
  // Donors whose winning plan came from a rewritten DAG are skipped: the
  // cached annotation indexes the rewritten structure, and replaying the
  // chain on the new shapes is exactly the search we are trying to avoid.
  if (donor->rewritten) return nullptr;
  if (!StructureMatches(donor->graph, graph)) return nullptr;
  if (!cache_.IsBucketValidated(key)) return nullptr;
  if (donor->plan.annotation.vertices.size() !=
      static_cast<size_t>(graph.num_vertices())) {
    return nullptr;
  }

  // Re-cost the donor's physical plan against the new shapes (SystemML's
  // dimension-stability observation). Validation guards formats that the
  // new dimensions make infeasible (e.g. strips taller than the matrix).
  Annotation annotation = donor->plan.annotation;
  Status valid = ValidateAnnotation(graph, annotation, catalog_, cluster_);
  if (!valid.ok()) {
    cache_.CountParamValidation(false);
    return nullptr;
  }
  double cost = AnnotationCost(graph, annotation, catalog_, model_, cluster_);
  if (!(cost >= 0.0) || !std::isfinite(cost)) {
    cache_.CountParamValidation(false);
    return nullptr;
  }
  // Revalidate the fused groups against the new shapes; drop fusion (cost
  // stays sound, just conservative) when any group no longer applies.
  double savings = 0.0;
  bool fusion_ok = true;
  for (const FusedGroup& group : annotation.fusion.groups) {
    if (!ValidateFusedGroup(graph, annotation, group).ok()) {
      fusion_ok = false;
      break;
    }
  }
  if (fusion_ok) {
    savings =
        FusionPlanSavings(graph, annotation, catalog_, model_, cluster_);
  } else {
    annotation.fusion = FusionPlan{};
  }

  // Pre-flight the reused plan exactly like a fresh one: the dry run
  // enforces the cluster budgets on the *new* shapes.
  PlanExecutor executor(catalog_, cluster_);
  executor.set_dist_workers(0);
  auto dry = executor.DryRun(graph, annotation);
  if (!dry.ok()) {
    cache_.CountParamValidation(false);
    if (diagnostics != nullptr) {
      diagnostics->Add(Severity::kNote, RuleId::kMO090_StalePlanReuse,
                       "parameterized reuse rejected: re-costed plan fails "
                       "pre-flight on the new shapes: " +
                           dry.status().ToString());
    }
    return nullptr;
  }

  auto entry = std::make_shared<CachedPlan>();
  entry->key = key;
  entry->graph = graph;
  entry->plan = donor->plan;
  entry->plan.annotation = std::move(annotation);
  entry->plan.cost = cost;
  entry->plan.fused_cost = cost - savings;
  entry->plan.opt_seconds = 0.0;
  entry->vertex_map.resize(graph.num_vertices());
  for (int v = 0; v < graph.num_vertices(); ++v) entry->vertex_map[v] = v;
  entry->cold_opt_seconds = donor->cold_opt_seconds;
  cache_.Insert(entry);
  cache_.CountParamHit(donor->cold_opt_seconds);
  return entry;
}

Result<std::shared_ptr<const CachedPlan>> OptimizerService::PlanMiss(
    const ComputeGraph& graph, const GraphKey& key, ServeResponse* response) {
  Stopwatch optimize_watch;
  std::shared_ptr<const CachedPlan> entry;
  std::shared_ptr<const CachedPlan> donor = cache_.LookupParam(key);
  bool validate_donor = false;
  if (donor != nullptr) {
    entry = TryParamReuse(graph, key, donor, &response->diagnostics);
    if (entry != nullptr) {
      response->cache = CacheOutcome::kParamHit;
    } else {
      // A donor exists but the shape bucket is not validated yet (or the
      // reuse was rejected): run the fresh search and cross-check the
      // re-costed donor against it below.
      validate_donor = !donor->rewritten &&
                       StructureMatches(donor->graph, graph) &&
                       !cache_.IsBucketValidated(key);
    }
  }
  if (entry == nullptr) {
    auto fresh = OptimizeWithRewrites(graph, catalog_, model_, cluster_,
                                      options_.optimizer, options_.rewrite);
    if (!fresh.ok()) return fresh.status();
    auto inserted = std::make_shared<CachedPlan>();
    inserted->key = key;
    inserted->graph = std::move(fresh.value().graph);
    inserted->plan = std::move(fresh.value().plan);
    inserted->rewritten = fresh.value().rewritten;
    inserted->exact = fresh.value().exact;
    inserted->budget_hit = fresh.value().budget_hit;
    inserted->candidates_considered = fresh.value().candidates_considered;
    inserted->baseline_cost = fresh.value().baseline_cost;
    for (const RewriteStep& step : fresh.value().chain) {
      inserted->chain.push_back(step.description);
    }
    inserted->vertex_map = std::move(fresh.value().vertex_map);
    inserted->cold_opt_seconds = optimize_watch.ElapsedSeconds();
    entry = inserted;

    if (validate_donor) {
      // Parameterized-reuse envelope: would the donor's plan, re-costed
      // on these shapes, have been acceptable in place of this search?
      Annotation donor_annotation = donor->plan.annotation;
      bool accepted = false;
      if (ValidateAnnotation(graph, donor_annotation, catalog_, cluster_)
              .ok()) {
        double recost = AnnotationCost(graph, donor_annotation, catalog_,
                                       model_, cluster_);
        double fresh_cost = std::max(entry->plan.fused_cost, 1e-12);
        accepted = std::isfinite(recost) &&
                   recost <= options_.reuse_envelope * fresh_cost;
        if (!accepted) {
          response->diagnostics.Add(
              Severity::kWarning, RuleId::kMO090_StalePlanReuse,
              "cached plan re-costs to " + std::to_string(recost) +
                  " on the new shapes, outside the x" +
                  std::to_string(options_.reuse_envelope) +
                  " envelope of the fresh search (" +
                  std::to_string(entry->plan.fused_cost) +
                  "); parameterized reuse disabled for this program");
          cache_.InvalidateParam(key);
        }
      }
      cache_.CountParamValidation(accepted);
      if (accepted) cache_.MarkBucketValidated(key);
    }
    cache_.Insert(inserted);
  }
  return entry;
}

Result<ServeResponse> OptimizerService::Handle(const ServeRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  Status admitted = Admit(request.tenant);
  if (!admitted.ok()) {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }
  AdmissionGuard guard{this, request.tenant};

  ServeResponse response;

  // Parse + post-parse analysis (the same pipeline explain runs).
  auto program = ParseProgramChecked(request.program, catalog_, cluster_,
                                     &response.diagnostics);
  if (!program.ok()) return program.status();
  const ComputeGraph& graph = program.value().graph;

  response.key =
      MakeGraphKey(graph, cluster_, options_.optimizer, options_.rewrite);

  Stopwatch optimize_watch;
  // Single flight: an exact-key miss registers a flight under the same
  // lock as its lookup, so concurrent misses on one program find either
  // the cached entry or the flight, and only the flight's owner searches.
  std::shared_ptr<const CachedPlan> entry;
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(response.key.exact);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      entry = cache_.Lookup(response.key);
      if (entry == nullptr) {
        flight = std::make_shared<Flight>();
        flight->outcome = flight->promise.get_future().share();
        flights_.emplace(response.key.exact, flight);
        owner = true;
      }
    }
  }
  if (entry != nullptr) {
    response.cache = CacheOutcome::kHit;
  } else if (!owner) {
    const Result<std::shared_ptr<const CachedPlan>>& shared =
        flight->outcome.get();
    if (!shared.ok()) return shared.status();
    entry = shared.value();
    cache_.CountHit(entry->cold_opt_seconds);
    response.cache = CacheOutcome::kHit;
  } else {
    Result<std::shared_ptr<const CachedPlan>> planned =
        PlanMiss(graph, response.key, &response);
    {
      // The entry is in the cache by now, so later requests hit it.
      std::lock_guard<std::mutex> lock(flights_mu_);
      flights_.erase(response.key.exact);
    }
    flight->promise.set_value(planned);
    if (!planned.ok()) return planned.status();
    entry = std::move(planned).value();
  }
  response.optimize_seconds = optimize_watch.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    optimize_seconds_ += response.optimize_seconds;
  }

  response.cost = entry->plan.cost;
  response.fused_cost = entry->plan.fused_cost;
  response.rewritten = entry->rewritten;
  if (entry->rewritten) {
    std::string chain;
    for (const std::string& step : entry->chain) {
      if (!chain.empty()) chain += " ; ";
      chain += step;
    }
    response.rewrite_chain = chain;
  }

  // Tenant cost budget: enforced on the *chosen* plan, before execution
  // (the serving twin of the dist runtime's measured budget enforcement).
  TenantBudget budget = BudgetFor(request.tenant);
  if (budget.max_plan_cost_seconds > 0.0 &&
      entry->plan.fused_cost > budget.max_plan_cost_seconds) {
    budget_rejects_.fetch_add(1, std::memory_order_relaxed);
    response.diagnostics.Add(
        Severity::kError, RuleId::kMO091_ServeBudgetRejected,
        "plan cost " + std::to_string(entry->plan.fused_cost) +
            " exceeds tenant '" + request.tenant + "' budget " +
            std::to_string(budget.max_plan_cost_seconds));
    return Status::OutOfMemory(
        "budget: plan cost " + std::to_string(entry->plan.fused_cost) +
        " simulated seconds exceeds tenant '" + request.tenant +
        "' per-request budget " +
        std::to_string(budget.max_plan_cost_seconds));
  }

  PlanExecutor executor(catalog_, cluster_);
  executor.set_dist_workers(0);
  auto dry = executor.DryRun(entry->graph, entry->plan.annotation);
  if (!dry.ok()) return dry.status();
  response.sim_seconds = dry.value().stats.sim_seconds;

  if (request.execute) {
    double input_entries = 0.0;
    for (int v = 0; v < entry->graph.num_vertices(); ++v) {
      if (entry->graph.vertex(v).op != OpKind::kInput) continue;
      input_entries +=
          static_cast<double>(entry->graph.vertex(v).type.NumEntries());
    }
    if (input_entries <= options_.max_execute_entries) {
      Stopwatch execute_watch;
      std::unordered_map<int, Relation> inputs;
      for (int v = 0; v < entry->graph.num_vertices(); ++v) {
        const Vertex& vx = entry->graph.vertex(v);
        if (vx.op != OpKind::kInput) continue;
        uint64_t seed = InputSeed(request.input_seed, vx.name);
        if (BuiltinFormats()[vx.input_format].sparse()) {
          auto rel = MakeSparseRelation(
              RandomSparse(vx.type.rows(), vx.type.cols(),
                           vx.sparsity * static_cast<double>(vx.type.cols()),
                           seed),
              vx.input_format, cluster_);
          if (!rel.ok()) return rel.status();
          inputs[v] = std::move(rel.value());
        } else {
          auto rel =
              MakeRelation(GaussianMatrix(vx.type.rows(), vx.type.cols(), seed),
                           vx.input_format, cluster_);
          if (!rel.ok()) return rel.status();
          inputs[v] = std::move(rel.value());
        }
      }
      // Sinks are keyed by chosen-graph vertex id; report them under the
      // program's declared output names (mapped through vertex_map when a
      // rewrite renumbered the graph) so hit/miss responses compare.
      std::unordered_map<int, std::string> sink_names;
      for (int original : program.value().outputs) {
        int mapped = original < static_cast<int>(entry->vertex_map.size())
                         ? entry->vertex_map[original]
                         : original;
        if (mapped < 0) continue;
        for (const auto& [name, vertex] : program.value().names) {
          if (vertex == original) {
            sink_names[mapped] = name;
            break;
          }
        }
      }

      auto run = executor.Execute(entry->graph, entry->plan.annotation,
                                  std::move(inputs));
      if (!run.ok()) return run.status();
      response.execute_seconds = execute_watch.ElapsedSeconds();
      response.executed = true;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        execute_seconds_ += response.execute_seconds;
      }
      for (auto& [sink, relation] : run.value().sinks) {
        auto dense = MaterializeDense(relation);
        if (!dense.ok()) return dense.status();
        std::string name;
        auto named = sink_names.find(sink);
        if (named != sink_names.end()) {
          name = named->second;
        } else {
          name = entry->graph.vertex(sink).name;
        }
        if (name.empty()) name = "v" + std::to_string(sink);
        response.sink_checksums.emplace_back(
            name, DenseChecksum(dense.value().data(), dense.value().size()));
      }
      std::sort(response.sink_checksums.begin(),
                response.sink_checksums.end());
    } else {
      response.diagnostics.Add(
          Severity::kNote, RuleId::kMO092_AdmissionThrottled,
          "execute skipped: " + std::to_string(input_entries) +
              " input entries exceed the execute cap (" +
              std::to_string(options_.max_execute_entries) +
              "); plan and predictions returned from the dry run");
    }
  }

  response.stats = Stats();
  return response;
}

}  // namespace serve
}  // namespace matopt
