#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/analyze.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "core/fusion/fusion.h"
#include "core/opt/enumerate.h"
#include "core/opt/optimizer.h"
#include "core/opt/search_memo.h"

namespace matopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Packed format assignment for up to 25 class members (5 bits each;
/// members 0-11 in `lo`, 12-24 in `hi`). Fixed-format members (graph
/// inputs) contribute a single value, so only op vertices along the
/// frontier contribute table-size dimensions.
struct Key128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const Key128&) const = default;
};

struct Key128Hash {
  size_t operator()(const Key128& k) const {
    uint64_t h = k.lo * 0x9e3779b97f4a7c15ull;
    h ^= k.hi + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

constexpr int kBitsPerMember = 5;
constexpr int kMaxMembers = 25;

FormatId DecodeFormat(const Key128& key, int index) {
  if (index < 12) {
    return static_cast<FormatId>((key.lo >> (kBitsPerMember * index)) & 0x1f);
  }
  return static_cast<FormatId>(
      (key.hi >> (kBitsPerMember * (index - 12))) & 0x1f);
}

Key128 EncodeFormat(Key128 key, int index, FormatId fmt) {
  if (index < 12) {
    uint64_t mask = uint64_t{0x1f} << (kBitsPerMember * index);
    key.lo = (key.lo & ~mask) |
             (static_cast<uint64_t>(fmt) << (kBitsPerMember * index));
  } else {
    int i = index - 12;
    uint64_t mask = uint64_t{0x1f} << (kBitsPerMember * i);
    key.hi = (key.hi & ~mask) |
             (static_cast<uint64_t>(fmt) << (kBitsPerMember * i));
  }
  return key;
}

/// One entry of an equivalence-class cost table: the minimum cost to
/// compute every member with the output formats in the entry's key, plus
/// inline backpointers (predecessor count is at most 2). `delta` is the
/// creating vertex's (implementation, edges, output format) choice; it
/// points into the search's SearchMemo, which outlives every table.
/// `preds` point at the entries of the merged classes this one extends:
/// tables are never modified once built and hash-map nodes never move.
struct ClassEntry {
  double cost = kInf;
  int64_t rank = 0;     // enumeration rank within its expansion (below)
  int32_t vertex = -1;  // op vertex whose processing created this entry
  uint8_t num_preds = 0;
  const FrontierDelta* delta = nullptr;
  std::array<const ClassEntry*, 2> preds{};
};

/// Joint cost table F(V, p) for one equivalence class V (Section 6.1).
struct ClassTable {
  std::vector<int> members;  // sorted vertex ids
  std::unordered_map<Key128, ClassEntry, Key128Hash> entries;

  int MemberIndex(int v) const {
    auto it = std::find(members.begin(), members.end(), v);
    return it == members.end() ? -1
                               : static_cast<int>(it - members.begin());
  }
};

/// Memo key of a value that depends on a matrix's shape and sparsity: the
/// shape and the sparsity's exact bit pattern.
void AppendTypeKey(const Vertex& vx, std::vector<uint64_t>* key) {
  key->push_back(vx.type.shape.size());
  for (int64_t s : vx.type.shape) key->push_back(static_cast<uint64_t>(s));
  uint64_t bits = 0;
  std::memcpy(&bits, &vx.sparsity, sizeof(bits));
  key->push_back(bits);
}

/// Every finite FrontierDelta of op vertex `v`, given its arguments'
/// transformation tables.
///
/// The (implementation, pouts, out, impl_cost) choices depend only on the
/// pouts, so they are enumerated once, over every pout some enabled pin
/// reaches, and then replayed for each pin combination with the pouts that
/// pin cannot reach skipped. The filtered replay visits the same choices
/// in the same order as enumerating per pin combination, and sums each
/// cost the same way, so every strict-< winner is the same.
std::unique_ptr<const VertexDeltas> ComputeDeltas(
    const ComputeGraph& graph, int v, const Catalog& catalog,
    const CostModel& model, const ClusterConfig& cluster,
    const OptimizerOptions& options,
    const std::vector<const TransformTable*>& tts) {
  const int num_formats = static_cast<int>(BuiltinFormats().size());
  const size_t arity = tts.size();
  std::vector<std::vector<FormatId>> pout_union(arity);
  for (size_t j = 0; j < arity; ++j) {
    for (FormatId pout = 0; pout < num_formats; ++pout) {
      for (FormatId pin = 0; pin < num_formats; ++pin) {
        if (catalog.FormatEnabled(pin) && tts[j]->Get(pin, pout).feasible) {
          pout_union[j].push_back(pout);
          break;
        }
      }
    }
  }
  struct Choice {
    ImplKind impl;
    FormatId out;
    std::array<FormatId, 2> pouts;
    double impl_cost;
  };
  std::vector<Choice> choices;
  ForEachImplChoice(graph, v, catalog, model, cluster, options, pout_union,
                    [&](ImplKind impl, const std::vector<FormatId>& pouts,
                        FormatId out, double impl_cost) {
                      Choice c{impl, out, {kNoFormat, kNoFormat}, impl_cost};
                      for (size_t j = 0; j < arity; ++j) c.pouts[j] = pouts[j];
                      choices.push_back(c);
                    });

  auto result = std::make_unique<VertexDeltas>();
  int64_t pin_combos = 1;
  for (size_t j = 0; j < arity; ++j) pin_combos *= num_formats;
  result->combo_begin.reserve(pin_combos + 1);
  std::vector<FrontierDelta> best(num_formats);
  std::array<FormatId, 2> pins{};
  for (int64_t combo = 0; combo < pin_combos; ++combo) {
    result->combo_begin.push_back(
        static_cast<int32_t>(result->deltas.size()));
    int64_t rem = combo;
    bool pins_ok = true;
    for (size_t j = 0; j < arity; ++j) {
      pins[j] = static_cast<FormatId>(rem % num_formats);
      rem /= num_formats;
      if (!catalog.FormatEnabled(pins[j])) pins_ok = false;
    }
    if (!pins_ok) continue;
    for (FrontierDelta& d : best) d.cost = kInf;
    for (const Choice& c : choices) {
      bool reachable = true;
      for (size_t j = 0; j < arity; ++j) {
        reachable = reachable && tts[j]->Get(pins[j], c.pouts[j]).feasible;
      }
      if (!reachable) continue;
      ++result->states;
      double cost = c.impl_cost;
      for (size_t j = 0; j < arity; ++j) {
        cost += tts[j]->Get(pins[j], c.pouts[j]).cost;
      }
      FrontierDelta& d = best[c.out];
      if (cost < d.cost) {
        d.cost = cost;
        d.impl = c.impl;
        for (size_t j = 0; j < arity; ++j) {
          d.edges[j] = EdgeAnnotation{
              pins[j], tts[j]->Get(pins[j], c.pouts[j]).kind, c.pouts[j]};
        }
      }
    }
    for (FormatId out = 0; out < num_formats; ++out) {
      if (std::isinf(best[out].cost)) continue;
      result->deltas.push_back(best[out]);
      result->deltas.back().out = out;
    }
  }
  result->combo_begin.push_back(static_cast<int32_t>(result->deltas.size()));
  return result;
}

}  // namespace

Result<PlanResult> FrontierOptimize(const ComputeGraph& graph,
                                    const Catalog& catalog,
                                    const CostModel& model,
                                    const ClusterConfig& cluster,
                                    const OptimizerOptions& options) {
  SearchMemo memo;
  return FrontierOptimize(graph, catalog, model, cluster, options, &memo);
}

Result<PlanResult> FrontierOptimize(const ComputeGraph& graph,
                                    const Catalog& catalog,
                                    const CostModel& model,
                                    const ClusterConfig& cluster,
                                    const OptimizerOptions& options,
                                    SearchMemo* memo) {
  Stopwatch watch;
  const int n = graph.num_vertices();
  const int num_formats = static_cast<int>(BuiltinFormats().size());
  const auto consumers = graph.BuildConsumers();
  const bool debug = EnvFlag("MATOPT_FRONTIER_DEBUG");

  std::vector<ClassTable> tables;
  std::vector<bool> active;              // per table id
  std::vector<int> vertex_table(n, -1);  // frontier vertex -> active table
  std::vector<bool> visited(n, false);
  int64_t states = 0;
  int beam_pruned_vertices = 0;

  // Initialize: every source vertex forms a singleton class holding its
  // given physical implementation at zero cost (Algorithm 4, lines 2-7).
  for (int v = 0; v < n; ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op != OpKind::kInput) continue;
    ClassTable table;
    table.members = {v};
    ClassEntry entry;
    entry.cost = 0.0;
    table.entries.emplace(EncodeFormat(Key128{}, 0, vx.input_format),
                          std::move(entry));
    tables.push_back(std::move(table));
    active.push_back(true);
    vertex_table[v] = static_cast<int>(tables.size()) - 1;
    visited[v] = true;
  }

  // Cheapest-transformation table of a producer vertex's output.
  auto transforms_for = [&](int u) -> const TransformTable* {
    const Vertex& ux = graph.vertex(u);
    std::vector<uint64_t> key;
    AppendTypeKey(ux, &key);
    auto& slot = memo->transforms[std::move(key)];
    if (!slot) {
      slot = std::make_unique<TransformTable>(
          catalog, model, cluster, ux.type, ux.sparsity,
          options.cost_transforms, options.allow_sparse,
          options.enforce_resource_limits);
    }
    return slot.get();
  };

  // v's deltas depend only on its op and its arguments' shapes and
  // sparsities (through the implementation costs and the arguments'
  // transformation tables), so vertices sharing that signature share them.
  auto deltas_for = [&](int v) -> const VertexDeltas& {
    const Vertex& vx = graph.vertex(v);
    std::vector<uint64_t> key = {static_cast<uint64_t>(vx.op),
                                 vx.inputs.size()};
    for (int arg : vx.inputs) AppendTypeKey(graph.vertex(arg), &key);
    auto& slot = memo->deltas[std::move(key)];
    if (!slot) {
      std::vector<const TransformTable*> tts;
      for (int arg : vx.inputs) tts.push_back(transforms_for(arg));
      slot = ComputeDeltas(graph, v, catalog, model, cluster, options, tts);
    }
    return *slot;
  };

  // New-class membership if `v` were processed now: the union of the old
  // classes containing v's arguments, plus v, minus vertices with no
  // remaining edge to an unvisited vertex (Algorithm 4, line 13).
  auto members_after = [&](int v) {
    std::vector<int> old_ids;
    for (int arg : graph.vertex(v).inputs) {
      int id = vertex_table[arg];
      if (std::find(old_ids.begin(), old_ids.end(), id) == old_ids.end()) {
        old_ids.push_back(id);
      }
    }
    std::vector<int> union_members;
    for (int id : old_ids) {
      for (int u : tables[id].members) union_members.push_back(u);
    }
    union_members.push_back(v);
    std::sort(union_members.begin(), union_members.end());
    union_members.erase(
        std::unique(union_members.begin(), union_members.end()),
        union_members.end());
    std::vector<int> next;
    for (int u : union_members) {
      for (int c : consumers[u]) {
        if (!visited[c] && c != v) {
          next.push_back(u);
          break;
        }
      }
    }
    return std::make_pair(old_ids, next);
  };

  // Process op vertices. Algorithm 4 (line 8) may choose any ready
  // vertex; we pick the one that most reduces the number of *free* (op)
  // frontier vertices — eagerly scheduling vertices that consume the last
  // pending use of an intermediate, and otherwise following construction
  // order. This keeps the joint tables small.
  std::vector<int> pending;
  for (int v = 0; v < n; ++v) {
    if (graph.vertex(v).op != OpKind::kInput) pending.push_back(v);
  }
  auto free_op_count = [&](const std::vector<int>& members) {
    int count = 0;
    for (int u : members) count += (graph.vertex(u).op != OpKind::kInput);
    return count;
  };

  while (!pending.empty()) {
    if (watch.ElapsedSeconds() > options.time_limit_sec) {
      return Status::Timeout("frontier DP exceeded its time budget");
    }
    int best_pos = -1;
    int best_delta = 1 << 30;
    for (size_t p = 0; p < pending.size(); ++p) {
      int v = pending[p];
      bool ready = true;
      for (int arg : graph.vertex(v).inputs) ready = ready && visited[arg];
      if (!ready) continue;
      auto [old_ids, next] = members_after(v);
      int before = 0;
      for (int id : old_ids) before += free_op_count(tables[id].members);
      // Change in live free vertices: v joins (unless it is itself dead),
      // dying members leave.
      int delta = free_op_count(next) - before;
      if (best_pos < 0 || delta < best_delta) {
        best_pos = static_cast<int>(p);
        best_delta = delta;
      }
    }
    if (best_pos < 0) {
      return Status::Internal("no ready vertex; graph is not a DAG?");
    }
    const int v = pending[best_pos];
    pending.erase(pending.begin() + best_pos);
    const Vertex& vx = graph.vertex(v);
    const size_t arity = vx.inputs.size();

    auto [old_ids, new_members] = members_after(v);
    visited[v] = true;
    if (static_cast<int>(new_members.size()) >
        std::min(options.max_class_size, kMaxMembers)) {
      return Status::Internal(
          "frontier equivalence class exceeds the class-size bound (" +
          std::to_string(new_members.size()) + " members)");
    }

    ClassTable next;
    next.members = new_members;
    const int v_index = next.MemberIndex(v);

    // Positions of surviving members and of v's arguments in the old keys.
    struct Carry {
      int old_pos;
      int old_index;
      int new_index;
    };
    std::vector<Carry> carries;
    for (size_t m = 0; m < new_members.size(); ++m) {
      int u = new_members[m];
      if (u == v) continue;
      for (size_t s = 0; s < old_ids.size(); ++s) {
        int idx = tables[old_ids[s]].MemberIndex(u);
        if (idx >= 0) {
          carries.push_back(
              Carry{static_cast<int>(s), idx, static_cast<int>(m)});
          break;
        }
      }
    }
    struct ArgSlot {
      int old_pos = 0;
      int old_index = 0;
    };
    std::vector<ArgSlot> arg_slots(arity);
    for (size_t j = 0; j < arity; ++j) {
      for (size_t s = 0; s < old_ids.size(); ++s) {
        int idx = tables[old_ids[s]].MemberIndex(vx.inputs[j]);
        if (idx >= 0) {
          arg_slots[j] = ArgSlot{static_cast<int>(s), idx};
          break;
        }
      }
    }

    // Equation 2's vertex-local term for every (argument pins, ρ).
    const VertexDeltas& vd = deltas_for(v);
    states += vd.states;

    // Cartesian product over the old classes' entries (Equation 2's joint
    // minimization); each combination only needs the per-(pins, ρ) deltas.
    //
    // Every produced entry carries a rank — its flat combination index
    // (last class fastest) times num_formats plus ρ — which is the
    // enumeration order. Each key keeps its minimum (cost, rank) winner,
    // and `next.entries` is built in ascending rank order: the table's
    // iteration order feeds the next expansion and the beam cap, so fixing
    // it makes the whole DP deterministic.
    //
    // A key is the carried members' formats plus ρ. The entries of each
    // old class are grouped by the formats they carry, so one combination
    // of groups owns every key with that carried part; its combinations
    // run in ascending rank order into a per-ρ winner slot, and a strict <
    // keeps the lowest-rank winner, without a hash lookup per combination.
    const size_t num_classes = old_ids.size();
    std::vector<std::vector<const std::pair<const Key128, ClassEntry>*>>
        entry_lists(num_classes);
    for (size_t s = 0; s < num_classes; ++s) {
      entry_lists[s].reserve(tables[old_ids[s]].entries.size());
      for (const auto& kv : tables[old_ids[s]].entries) {
        entry_lists[s].push_back(&kv);
      }
    }
    int64_t total_combos = 1;
    std::vector<int64_t> stride(num_classes, 1);
    for (size_t s = num_classes; s-- > 0;) {
      stride[s] = total_combos;
      total_combos *= static_cast<int64_t>(entry_lists[s].size());
    }

    struct Group {
      Key128 carried;              // this class's carried formats
      std::vector<int32_t> picks;  // ascending indices into entry_lists[s]
    };
    std::vector<std::vector<Group>> groups(num_classes);
    // Per entry: its part of the pin combination index (argument j's pin
    // times num_formats^j, for the arguments it holds).
    std::vector<std::vector<int64_t>> combo_part(num_classes);
    for (size_t s = 0; s < num_classes; ++s) {
      std::unordered_map<Key128, size_t, Key128Hash> group_of;
      combo_part[s].resize(entry_lists[s].size());
      for (size_t i = 0; i < entry_lists[s].size(); ++i) {
        const Key128& old_key = entry_lists[s][i]->first;
        Key128 carried;
        for (const Carry& c : carries) {
          if (c.old_pos != static_cast<int>(s)) continue;
          carried = EncodeFormat(carried, c.new_index,
                                 DecodeFormat(old_key, c.old_index));
        }
        auto [it, inserted] = group_of.try_emplace(carried, groups[s].size());
        if (inserted) groups[s].push_back(Group{carried, {}});
        groups[s][it->second].picks.push_back(static_cast<int32_t>(i));
        int64_t part = 0;
        int64_t power = 1;
        for (size_t j = 0; j < arity; ++j) {
          if (arg_slots[j].old_pos == static_cast<int>(s)) {
            part += power * DecodeFormat(old_key, arg_slots[j].old_index);
          }
          power *= num_formats;
        }
        combo_part[s][i] = part;
      }
    }

    // Winners, one per key; with v dead on arrival (v_index < 0) every ρ
    // maps to the same key, so a group combination has a single slot.
    std::vector<std::pair<Key128, ClassEntry>> produced;
    std::vector<ClassEntry> slot(v_index >= 0 ? num_formats : 1);
    std::vector<size_t> group_at(num_classes, 0);
    std::vector<size_t> pick_at(num_classes, 0);
    std::vector<int32_t> pick(num_classes, 0);
    int64_t visited_combos = 0;
    bool groups_left = total_combos > 0;
    while (groups_left) {
      Key128 carried;
      for (size_t s = 0; s < num_classes; ++s) {
        const Key128& part = groups[s][group_at[s]].carried;
        carried.lo |= part.lo;
        carried.hi |= part.hi;
      }
      for (ClassEntry& e : slot) e.vertex = -1;
      std::fill(pick_at.begin(), pick_at.end(), 0);
      bool picks_left = true;
      while (picks_left) {
        if ((visited_combos++ & 0xfff) == 0 &&
            watch.ElapsedSeconds() > options.time_limit_sec) {
          return Status::Timeout("frontier DP exceeded its time budget");
        }
        int64_t flat = 0;
        int64_t combo = 0;
        double base = 0.0;
        for (size_t s = 0; s < num_classes; ++s) {
          pick[s] = groups[s][group_at[s]].picks[pick_at[s]];
          flat += stride[s] * pick[s];
          combo += combo_part[s][pick[s]];
          base += entry_lists[s][pick[s]]->second.cost;
        }
        for (int32_t k = vd.combo_begin[combo]; k < vd.combo_begin[combo + 1];
             ++k) {
          const FrontierDelta& d = vd.deltas[k];
          const double cost = base + d.cost;
          ClassEntry& e = slot[v_index >= 0 ? d.out : 0];
          if (e.vertex < 0 || cost < e.cost) {
            e.cost = cost;
            e.rank = flat * num_formats + d.out;
            e.vertex = v;
            e.delta = &d;
            e.num_preds = static_cast<uint8_t>(num_classes);
            for (size_t s = 0; s < num_classes; ++s) {
              e.preds[s] = &entry_lists[s][pick[s]]->second;
            }
          }
        }
        // Next combination of picks, last class fastest.
        size_t s = num_classes;
        picks_left = false;
        while (s-- > 0) {
          if (++pick_at[s] < groups[s][group_at[s]].picks.size()) {
            picks_left = true;
            break;
          }
          pick_at[s] = 0;
        }
      }
      for (const ClassEntry& e : slot) {
        if (e.vertex < 0) continue;
        Key128 key = carried;
        if (v_index >= 0) key = EncodeFormat(key, v_index, e.delta->out);
        produced.emplace_back(key, e);
      }
      size_t s = num_classes;
      groups_left = false;
      while (s-- > 0) {
        if (++group_at[s] < groups[s].size()) {
          groups_left = true;
          break;
        }
        group_at[s] = 0;
      }
    }
    states += total_combos;

    // Beam cap (Section 6.3's bounded-table assumption), applied before
    // the rebuild so only surviving entries pay the sort and insertion.
    // Ties at the cutoff cost keep the lowest ranks, so the kept set is
    // deterministic too (exactly max_table_entries survive).
    bool capped =
        static_cast<int64_t>(produced.size()) > options.max_table_entries;
    double cost_cutoff = kInf;
    int64_t rank_cutoff = 0;
    if (capped) {
      ++beam_pruned_vertices;
      std::vector<double> costs;
      costs.reserve(produced.size());
      for (const auto& kv : produced) costs.push_back(kv.second.cost);
      auto nth = costs.begin() + options.max_table_entries;
      std::nth_element(costs.begin(), nth, costs.end());
      cost_cutoff = *nth;
      int64_t below = 0;
      for (const auto& kv : produced) {
        below += kv.second.cost < cost_cutoff;
      }
      const int64_t slots = options.max_table_entries - below;
      std::vector<int64_t> eq_ranks;
      for (const auto& kv : produced) {
        if (kv.second.cost == cost_cutoff) {
          eq_ranks.push_back(kv.second.rank);
        }
      }
      if (slots < static_cast<int64_t>(eq_ranks.size())) {
        std::nth_element(eq_ranks.begin(), eq_ranks.begin() + slots,
                         eq_ranks.end());
        rank_cutoff = eq_ranks[slots];
      } else {
        rank_cutoff = std::numeric_limits<int64_t>::max();
      }
      std::erase_if(produced, [&](const auto& kv) {
        const double c = kv.second.cost;
        return c > cost_cutoff ||
               (c == cost_cutoff && kv.second.rank >= rank_cutoff);
      });
    }
    std::sort(produced.begin(), produced.end(),
              [](const auto& a, const auto& b) {
                return a.second.rank < b.second.rank;
              });
    for (const auto& [key, entry] : produced) next.entries.emplace(key, entry);
    if (next.entries.empty()) {
      return Status::TypeError("no type-correct annotation exists at vertex " +
                               std::to_string(v));
    }

    if (debug) {
      int free_ops = 0;
      for (int u : new_members) {
        free_ops += (graph.vertex(u).op != OpKind::kInput);
      }
      std::fprintf(stderr,
                   "frontier: v%d (%s) members=%zu free=%d entries=%zu\n", v,
                   graph.vertex(v).name.c_str(), new_members.size(), free_ops,
                   next.entries.size());
    }

    // Install the new class (Algorithm 4, line 14).
    int new_id = static_cast<int>(tables.size());
    tables.push_back(std::move(next));
    active.push_back(true);
    for (int id : old_ids) active[id] = false;
    for (int u : tables[new_id].members) vertex_table[u] = new_id;
  }

  // Optimal total cost: sum over remaining active classes of their best
  // entries; reconstruct the annotation by following backpointers.
  PlanResult result;
  result.annotation.vertices.resize(n);
  for (int v = 0; v < n; ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op == OpKind::kInput) {
      result.annotation.at(v).output_format = vx.input_format;
    }
  }
  double total = 0.0;
  std::vector<const ClassEntry*> stack;
  for (size_t id = 0; id < tables.size(); ++id) {
    if (!active[id]) continue;
    const ClassTable& table = tables[id];
    const std::pair<const Key128, ClassEntry>* best = nullptr;
    for (const auto& kv : table.entries) {
      if (best == nullptr || kv.second.cost < best->second.cost) best = &kv;
    }
    if (best == nullptr) return Status::TypeError("empty final class table");
    total += best->second.cost;
    stack.push_back(&best->second);
  }
  while (!stack.empty()) {
    const ClassEntry& e = *stack.back();
    stack.pop_back();
    if (e.vertex >= 0) {
      VertexAnnotation& va = result.annotation.at(e.vertex);
      const size_t arity = graph.vertex(e.vertex).inputs.size();
      va.impl = e.delta->impl;
      va.output_format = e.delta->out;
      va.input_edges.assign(e.delta->edges.begin(),
                            e.delta->edges.begin() + arity);
    }
    for (int s = 0; s < e.num_preds; ++s) stack.push_back(e.preds[s]);
  }

  result.cost = total;
  result.opt_seconds = watch.ElapsedSeconds();
  result.states_explored = states;
  result.beam_pruned = beam_pruned_vertices > 0;
  result.beam_pruned_vertices = beam_pruned_vertices;
  MATOPT_RETURN_IF_ERROR(
      VerifySearchResult(graph, result.annotation, catalog, model, cluster));
  PlanFusion(graph, catalog, model, cluster, options, &result);
  return result;
}

}  // namespace matopt
