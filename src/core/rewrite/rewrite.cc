#include "core/rewrite/rewrite.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "analysis/dataflow.h"
#include "common/stopwatch.h"
#include "core/opt/search_memo.h"
#include "core/rewrite/rewrite_internal.h"

namespace matopt {

// ---------------------------------------------------------------------------
// Runtime knob.

namespace {

// -1 = no override (environment decides), 0 = forced off, 1 = forced on.
// Same shape as the SIMD and fusion overrides.
std::atomic<int> g_rewrite_override{-1};

bool ReadEnvEnabled() {
  const char* env = std::getenv("MATOPT_REWRITE");
  if (env != nullptr) return env[0] != '0';
  return RewriteCompiled();
}

}  // namespace

bool RewriteCompiled() {
#ifdef MATOPT_REWRITE_OFF
  return false;
#else
  return true;
#endif
}

bool RewriteEnabled() {
  int o = g_rewrite_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return ReadEnvEnabled();
}

void OverrideRewriteEnabled(bool enabled) {
  g_rewrite_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void ClearRewriteOverride() {
  g_rewrite_override.store(-1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Canonical graph fingerprint.

namespace {

uint64_t HashCombine(uint64_t h, uint64_t x) {
  // 64-bit boost::hash_combine with a splitmix-style finalizer on x.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return h ^ (x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}

uint64_t DoubleBits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  return h;
}

uint64_t HashVertex(const ComputeGraph& g, int v, std::vector<uint64_t>* memo,
                    std::vector<char>* done) {
  if ((*done)[v]) return (*memo)[v];
  const Vertex& vx = g.vertex(v);
  uint64_t h = 0x243F6A8885A308D3ull;
  h = HashCombine(h, static_cast<uint64_t>(vx.op));
  if (vx.op == OpKind::kInput) {
    h = HashCombine(h, HashString(vx.name));
    h = HashCombine(h, static_cast<uint64_t>(vx.input_format));
    h = HashCombine(h, DoubleBits(vx.sparsity));
    for (int64_t s : vx.type.shape) {
      h = HashCombine(h, static_cast<uint64_t>(s));
    }
  } else {
    h = HashCombine(h, DoubleBits(vx.scalar));
    for (int a : vx.inputs) h = HashCombine(h, HashVertex(g, a, memo, done));
  }
  (*done)[v] = 1;
  (*memo)[v] = h;
  return h;
}

}  // namespace

uint64_t GraphFingerprint(const ComputeGraph& graph) {
  std::vector<uint64_t> memo(graph.num_vertices(), 0);
  std::vector<char> done(graph.num_vertices(), 0);
  std::vector<uint64_t> sink_hashes;
  for (int s : graph.Sinks()) {
    sink_hashes.push_back(HashVertex(graph, s, &memo, &done));
  }
  // Sink hashes are combined in sorted order so the fingerprint depends on
  // the *set* of sink expressions, not on vertex numbering.
  std::sort(sink_hashes.begin(), sink_hashes.end());
  uint64_t h = HashCombine(0x452821E638D01377ull, sink_hashes.size());
  for (uint64_t sh : sink_hashes) h = HashCombine(h, sh);
  return h;
}

// ---------------------------------------------------------------------------
// Rebuilder.

namespace rewrite_internal {

Rebuilder::Rebuilder(const ComputeGraph& src, int target,
                     const std::function<Result<int>(Rebuilder&)>& emit)
    : src_(src),
      target_(target),
      emit_(emit),
      memo_(src.num_vertices(), -1),
      in_progress_(src.num_vertices(), 0) {}

int Rebuilder::Clone(int v) {
  if (!status_.ok()) return -1;
  if (v < 0 || v >= src_.num_vertices()) {
    status_ = Status::Internal("rewrite clone: vertex id out of range");
    return -1;
  }
  if (memo_[v] >= 0) return memo_[v];
  if (in_progress_[v]) {
    status_ = Status::Internal("rewrite emitter produced a cycle");
    return -1;
  }
  in_progress_[v] = 1;
  const Vertex& vx = src_.vertex(v);
  int nv = -1;
  if (v == target_) {
    Result<int> r = emit_(*this);
    if (!r.ok()) {
      status_ = r.status();
      in_progress_[v] = 0;
      return -1;
    }
    nv = r.value();
  } else if (vx.op == OpKind::kInput) {
    nv = out_.AddInput(vx.type, vx.input_format, vx.name, vx.sparsity);
  } else {
    std::vector<int> args;
    args.reserve(vx.inputs.size());
    for (int a : vx.inputs) {
      int c = Clone(a);
      if (c < 0) {
        in_progress_[v] = 0;
        return -1;
      }
      args.push_back(c);
    }
    auto key = std::make_tuple(static_cast<int>(vx.op), args,
                               [&] {
                                 uint64_t b = 0;
                                 std::memcpy(&b, &vx.scalar, sizeof(b));
                                 return b;
                               }());
    auto it = cse_.find(key);
    if (it != cse_.end()) {
      nv = it->second;
    } else {
      Result<int> r = out_.AddOp(vx.op, std::move(args), vx.name, vx.scalar);
      if (!r.ok()) {
        status_ = r.status();
        in_progress_[v] = 0;
        return -1;
      }
      nv = r.value();
      // Keep the original source anchor so analysis diagnostics on the
      // rewritten graph still point at the program text.
      out_.vertex(nv).src_line = vx.src_line;
      out_.vertex(nv).src_column = vx.src_column;
      cse_.emplace(std::move(key), nv);
    }
  }
  in_progress_[v] = 0;
  memo_[v] = nv;
  return nv;
}

Result<int> Rebuilder::Emit(OpKind op, std::vector<int> args, double scalar) {
  for (int a : args) {
    if (a < 0 || a >= out_.num_vertices()) {
      return Status::Internal("rewrite emit: argument id out of range");
    }
  }
  uint64_t sbits = 0;
  std::memcpy(&sbits, &scalar, sizeof(sbits));
  auto key = std::make_tuple(static_cast<int>(op), args, sbits);
  auto it = cse_.find(key);
  if (it != cse_.end()) return it->second;
  MATOPT_ASSIGN_OR_RETURN(int id, out_.AddOp(op, std::move(args), "", scalar));
  cse_.emplace(std::move(key), id);
  return id;
}

}  // namespace rewrite_internal

// ---------------------------------------------------------------------------
// Bounded rule-closure enumeration.

namespace {

struct Applied {
  ComputeGraph graph;
  std::vector<int> map;  // source vertex id -> rewritten vertex id
};

/// Applies one match to `src`: clones every input (in original order, so
/// relation bindings stay stable), then every sink, with the matched
/// vertex redirected through the rule emitter. Returns nullopt when the
/// rebuild fails or the rewrite does not preserve the sink set (every
/// original sink must map to a sink of the rewritten graph).
std::optional<Applied> ApplyMatch(const ComputeGraph& src,
                                  const rewrite_internal::Match& m) {
  rewrite_internal::Rebuilder rb(src, m.step.vertex, m.emit);
  for (int v = 0; v < src.num_vertices(); ++v) {
    if (src.vertex(v).op == OpKind::kInput && rb.Clone(v) < 0) {
      return std::nullopt;
    }
  }
  for (int s : src.Sinks()) {
    if (rb.Clone(s) < 0) return std::nullopt;
  }
  Applied applied{rb.TakeGraph(), rb.TakeMap()};
  std::vector<int> new_sinks = applied.graph.Sinks();
  std::unordered_set<int> sink_set(new_sinks.begin(), new_sinks.end());
  for (int s : src.Sinks()) {
    int ms = applied.map[s];
    if (ms < 0 || sink_set.find(ms) == sink_set.end()) return std::nullopt;
  }
  return applied;
}

bool IntervalsIntersect(const SparsityInterval& a, const SparsityInterval& b,
                        double slack) {
  return a.lo <= b.hi + slack && b.lo <= a.hi + slack;
}

}  // namespace

RewriteSearchResult EnumerateRewrites(const ComputeGraph& graph,
                                      const RewriteOptions& options) {
  RewriteSearchResult res;
  RewriteCandidate orig;
  orig.graph = graph;
  orig.vertex_map.resize(graph.num_vertices());
  std::iota(orig.vertex_map.begin(), orig.vertex_map.end(), 0);
  orig.fingerprint = GraphFingerprint(graph);
  res.candidates.push_back(std::move(orig));
  if (!options.enable || options.max_depth <= 0 || options.max_candidates <= 1) {
    return res;
  }

  const std::vector<int> orig_sinks = graph.Sinks();
  const DataflowResult orig_flow = RunSparsityDataflow(graph);
  std::unordered_set<uint64_t> seen{res.candidates[0].fingerprint};

  // BFS over the growing candidate list: candidates are appended in
  // discovery order, so chains are explored shortest-first and the
  // strict-improvement tie-break in OptimizeWithRewrites prefers the
  // shortest chain automatically.
  for (size_t qi = 0; qi < res.candidates.size(); ++qi) {
    if (static_cast<int>(res.candidates[qi].chain.size()) >=
        options.max_depth) {
      continue;
    }
    // Copy what the expansion needs: push_back below may reallocate.
    const ComputeGraph parent = res.candidates[qi].graph;
    const std::vector<RewriteStep> parent_chain = res.candidates[qi].chain;
    const std::vector<int> parent_map = res.candidates[qi].vertex_map;
    const bool parent_exact = res.candidates[qi].exact;

    const DataflowResult flow = RunSparsityDataflow(parent);
    const std::vector<rewrite_internal::Match> matches =
        rewrite_internal::FindMatches(parent, flow, options);
    for (const rewrite_internal::Match& m : matches) {
      if (static_cast<int>(res.candidates.size()) >= options.max_candidates) {
        res.budget_hit = true;
        break;
      }
      std::optional<Applied> applied = ApplyMatch(parent, m);
      if (!applied.has_value()) continue;

      uint64_t fp = GraphFingerprint(applied->graph);
      if (!seen.insert(fp).second) continue;

      // Apply-time consistency guard (the MO080 twin): the rewritten
      // sinks' sound sparsity intervals must intersect the original's.
      const DataflowResult cand_flow = RunSparsityDataflow(applied->graph);
      std::vector<int> cand_map(graph.num_vertices(), -1);
      bool consistent = true;
      for (int ov = 0; ov < graph.num_vertices(); ++ov) {
        int pv = parent_map[ov];
        cand_map[ov] = pv < 0 ? -1 : applied->map[pv];
      }
      for (int s : orig_sinks) {
        if (cand_map[s] < 0 ||
            !IntervalsIntersect(orig_flow.at(s), cand_flow.at(cand_map[s]),
                                options.guard_slack)) {
          consistent = false;
          break;
        }
      }
      if (!consistent) {
        seen.erase(fp);
        continue;
      }

      RewriteCandidate cand;
      cand.graph = std::move(applied->graph);
      cand.chain = parent_chain;
      cand.chain.push_back(m.step);
      cand.vertex_map = std::move(cand_map);
      cand.fingerprint = fp;
      cand.exact = parent_exact && m.step.exact;
      res.candidates.push_back(std::move(cand));
      ++res.applications;
    }
    if (res.budget_hit) break;
  }
  return res;
}

// ---------------------------------------------------------------------------
// Rewrite-aware optimization.

std::string RewrittenPlan::ChainString() const {
  std::string s;
  for (const RewriteStep& step : chain) {
    if (!s.empty()) s += " ; ";
    s += step.description;
  }
  return s;
}

Result<RewrittenPlan> OptimizeWithRewrites(
    const ComputeGraph& graph, const Catalog& catalog, const CostModel& model,
    const ClusterConfig& cluster, const OptimizerOptions& options,
    const RewriteOptions& rewrite_options) {
  Stopwatch watch;
  // Candidates differ from the original only locally, so most of their
  // vertices repeat a signature an earlier search already enumerated.
  SearchMemo memo;
  RewrittenPlan out;
  MATOPT_ASSIGN_OR_RETURN(
      out.plan, Optimize(graph, catalog, model, cluster, options, &memo));
  out.graph = graph;
  out.vertex_map.resize(graph.num_vertices());
  std::iota(out.vertex_map.begin(), out.vertex_map.end(), 0);
  out.baseline_cost = out.plan.fused_cost;
  if (!rewrite_options.enable || !RewriteEnabled()) {
    out.search_seconds = watch.ElapsedSeconds();
    return out;
  }

  RewriteSearchResult search = EnumerateRewrites(graph, rewrite_options);
  out.candidates_considered = static_cast<int>(search.candidates.size());
  out.budget_hit = search.budget_hit;
  for (size_t i = 1; i < search.candidates.size(); ++i) {
    RewriteCandidate& cand = search.candidates[i];
    Result<PlanResult> r =
        Optimize(cand.graph, catalog, model, cluster, options, &memo);
    // A candidate that cannot be planned on this cluster (resource limits,
    // timeout) simply loses; the original plan already succeeded.
    if (!r.ok()) continue;
    if (r.value().fused_cost < out.plan.fused_cost) {
      out.graph = std::move(cand.graph);
      out.plan = std::move(r).value();
      out.chain = std::move(cand.chain);
      out.vertex_map = std::move(cand.vertex_map);
      out.exact = cand.exact;
      out.rewritten = true;
    }
  }
  out.search_seconds = watch.ElapsedSeconds();
  return out;
}

}  // namespace matopt
