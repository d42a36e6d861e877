#include "sparql/executor.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "sparql/operators.h"
#include "sparql/plangen.h"

namespace alex::sparql {
namespace {

using rdf::TermId;
using rdf::TermPattern;
using rdf::Triple;
using rdf::TripleStore;

// FNV-1a over an id tuple; used for GROUP BY / DISTINCT hash indexes.
struct IdRowHash {
  size_t operator()(const std::vector<TermId>& row) const {
    size_t h = 14695981039346656037ull;
    for (TermId id : row) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return h;
  }
};

// Result tail of an aggregation, whose rows carry terms the dictionary
// does not know (the aggregate outputs): DISTINCT, ORDER BY, OFFSET, LIMIT
// in term space.
std::vector<Binding> FinishAggregateRows(const Query& query,
                                         std::vector<Binding> rows) {
  if (query.distinct) {
    std::set<Binding> seen;
    std::vector<Binding> unique;
    for (Binding& row : rows) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    rows = std::move(unique);
  }
  if (!query.order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&query](const Binding& a, const Binding& b) {
                       return CompareBindingsForOrder(a, b, query.order_by) < 0;
                     });
  }
  if (query.offset > 0) {
    rows.erase(rows.begin(),
               rows.begin() + std::min(query.offset, rows.size()));
  }
  if (query.limit && rows.size() > *query.limit) {
    rows.resize(*query.limit);
  }
  return rows;
}

// GROUP BY / aggregation over id rows (full slot snapshots): stable
// first-appearance group order (with no GROUP BY the whole input is one
// group, even when empty: COUNT(*) of nothing is 0), COUNT(?v) counts bound
// rows, SUM / AVG fold the parseable values, and MIN / MAX keep the first
// term attaining a strict extremum. Only group keys and winning MIN / MAX
// terms are decoded through the dictionary; numeric parsing is memoized
// per TermId.
std::vector<Binding> AggregateIdRows(const CompiledQuery& plan,
                                     const std::vector<std::vector<TermId>>& rows,
                                     const rdf::Dictionary& dict) {
  const Query& query = *plan.query;
  struct IdGroup {
    std::vector<TermId> key;
    std::vector<const std::vector<TermId>*> members;
  };
  std::vector<IdGroup> groups;
  std::unordered_map<std::vector<TermId>, size_t, IdRowHash> index;
  for (const std::vector<TermId>& row : rows) {
    std::vector<TermId> key(plan.group_by_slots.size(), rdf::kInvalidTermId);
    for (size_t i = 0; i < plan.group_by_slots.size(); ++i) {
      VarSlot slot = plan.group_by_slots[i];
      if (slot != kNoSlot) key[i] = row[slot];
    }
    auto [entry, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.push_back({std::move(key), {}});
    groups[entry->second].members.push_back(&row);
  }
  if (groups.empty() && query.group_by.empty()) {
    groups.push_back({{}, {}});  // global aggregate over zero rows
  }

  std::unordered_map<TermId, std::pair<bool, double>> parse_memo;
  auto parse = [&](TermId id, double* value) {
    auto [it, inserted] = parse_memo.try_emplace(id);
    if (inserted) {
      it->second.first = ParseDouble(dict.term(id).lexical(), &it->second.second);
    }
    *value = it->second.second;
    return it->second.first;
  };

  std::vector<Binding> out;
  out.reserve(groups.size());
  for (const IdGroup& group : groups) {
    Binding result;
    for (size_t i = 0; i < group.key.size(); ++i) {
      if (group.key[i] != rdf::kInvalidTermId) {
        result.emplace(query.group_by[i], dict.term(group.key[i]));
      }
    }
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const Aggregate& agg = query.aggregates[a];
      VarSlot slot = plan.aggregate_slots[a];
      if (agg.kind == Aggregate::Kind::kCount) {
        size_t count = 0;
        for (const std::vector<TermId>* row : group.members) {
          if (slot == kNoSlot || (*row)[slot] != rdf::kInvalidTermId) ++count;
        }
        result.emplace(agg.as,
                       rdf::Term::IntegerLiteral(static_cast<int64_t>(count)));
        continue;
      }
      double sum = 0.0;
      size_t n = 0;
      TermId min_id = rdf::kInvalidTermId;
      TermId max_id = rdf::kInvalidTermId;
      double min_value = 0.0, max_value = 0.0;
      for (const std::vector<TermId>* row : group.members) {
        TermId id = slot == kNoSlot ? rdf::kInvalidTermId : (*row)[slot];
        if (id == rdf::kInvalidTermId) continue;
        double value = 0.0;
        if (!parse(id, &value)) continue;
        sum += value;
        ++n;
        if (min_id == rdf::kInvalidTermId || value < min_value) {
          min_id = id;
          min_value = value;
        }
        if (max_id == rdf::kInvalidTermId || value > max_value) {
          max_id = id;
          max_value = value;
        }
      }
      switch (agg.kind) {
        case Aggregate::Kind::kSum:
          result.emplace(agg.as, rdf::Term::DoubleLiteral(sum));
          break;
        case Aggregate::Kind::kAvg:
          result.emplace(agg.as,
                         rdf::Term::DoubleLiteral(n == 0 ? 0.0 : sum / n));
          break;
        case Aggregate::Kind::kMin:
          if (min_id != rdf::kInvalidTermId) {
            result.emplace(agg.as, dict.term(min_id));
          }
          break;
        case Aggregate::Kind::kMax:
          if (max_id != rdf::kInvalidTermId) {
            result.emplace(agg.as, dict.term(max_id));
          }
          break;
        case Aggregate::Kind::kCount:
          break;  // handled above
      }
    }
    out.push_back(std::move(result));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Id-space execution of a CompiledQuery. Bindings live in a flat TermId
// array indexed by VarSlot. A required group with a physical plan runs as
// its operator tree; OPTIONAL groups, and groups without one, are
// enumerated pattern-at-a-time in the compiled greedy order, where pattern
// positions resolve to either a precompiled constant id or a slot read and
// every probe is a lazy MatchCursor over one contiguous index range.
// Filters already proven to hold along the current path are tracked in a
// 64-bit mask so they are evaluated at most once per path (filters beyond
// the first 64 are simply re-evaluated — same verdict, just slower).
// ---------------------------------------------------------------------------

class CompiledExecutor {
 public:
  CompiledExecutor(const CompiledQuery& plan, const ExecuteOptions& options)
      : plan_(plan),
        query_(*plan.query),
        store_(*plan.store),
        dict_(plan.store->dictionary()),
        options_(options),
        slots_(plan.num_slots, rdf::kInvalidTermId) {}

  // Collects per-operator produced-row counts per alternative (explain
  // instrumentation; planned groups only).
  void set_explain_actuals(std::vector<std::vector<size_t>>* actuals) {
    explain_actuals_ = actuals;
  }

  Result<std::vector<Binding>> Run() {
    for (size_t a = 0; a < plan_.alternatives.size(); ++a) {
      if (stop_) break;
      const CompiledGroup& group = plan_.alternatives[a];
      if (group.unmatchable) continue;
      std::fill(slots_.begin(), slots_.end(), rdf::kInvalidTermId);
      const PhysicalPlan* phys =
          a < plan_.plans.size() ? &plan_.plans[a] : nullptr;
      if (phys != nullptr && phys->root >= 0) {
        RunPlannedGroup(group, *phys, a);
      } else {
        EnumerateGroup(group, 0, 0,
                       [this](uint64_t passed) { ApplyOptionals(0, passed); });
      }
    }
    if (!query_.aggregates.empty()) {
      return FinishAggregateRows(query_,
                                 AggregateIdRows(plan_, agg_id_rows_, dict_));
    }
    if (query_.distinct) DedupIdRows();
    if (!query_.order_by.empty()) OrderIdRows();
    if (query_.offset > 0) {
      id_rows_.erase(
          id_rows_.begin(),
          id_rows_.begin() + std::min(query_.offset, id_rows_.size()));
    }
    if (query_.limit && id_rows_.size() > *query_.limit) {
      id_rows_.resize(*query_.limit);
    }
    return Materialize();
  }

 private:
  // Pull rows out of the group's physical operator tree; each row is
  // copied from the register file into the slot array via the plan's
  // representative-register map, then flows through the ordinary OPTIONAL /
  // filter / emission tail. Filters the plan already enforced seed the
  // filters-passed mask.
  void RunPlannedGroup(const CompiledGroup& group, const PhysicalPlan& phys,
                       size_t alternative) {
    OperatorTree tree = BuildOperatorTree(phys, plan_, group, &regs_);
    tree.root->Open();
    while (!stop_ && tree.root->Next()) {
      for (VarSlot slot = 0; slot < phys.slot_reg.size(); ++slot) {
        if (phys.slot_reg[slot] != kNoReg) {
          slots_[slot] = regs_[phys.slot_reg[slot]];
        }
      }
      ApplyOptionals(0, phys.applied_filters);
    }
    if (explain_actuals_ != nullptr) {
      (*explain_actuals_)[alternative] = tree.ProducedRows();
    }
  }

  TermPattern Value(const CompiledNode& node) const {
    if (!node.is_variable) return node.id;
    TermId id = slots_[node.slot];
    if (id == rdf::kInvalidTermId) return std::nullopt;
    return id;
  }

  bool EvalCompiled(const CompiledFilter& filter) const {
    if (!filter.bitmap.empty()) {
      return filter.bitmap[slots_[filter.bitmap_slot]];
    }
    Binding binding;
    for (VarSlot slot : filter.slots) {
      binding.emplace(plan_.slot_names[slot], dict_.term(slots_[slot]));
    }
    return EvalFilter(*filter.expr, binding);
  }

  // Evaluates every filter that is ready (all slots bound) and not yet
  // known to pass along this path; false prunes the path.
  bool FiltersPass(uint64_t* passed) const {
    for (size_t i = 0; i < plan_.filters.size(); ++i) {
      const bool tracked = i < 64;
      if (tracked && ((*passed >> i) & 1)) continue;
      const CompiledFilter& filter = plan_.filters[i];
      bool ready = true;
      for (VarSlot slot : filter.slots) {
        if (slots_[slot] == rdf::kInvalidTermId) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      if (!EvalCompiled(filter)) return false;
      if (tracked) *passed |= (1ull << i);
    }
    return true;
  }

  void EnumerateGroup(const CompiledGroup& group, size_t depth,
                      uint64_t passed,
                      const std::function<void(uint64_t)>& emit) {
    if (stop_) return;
    if (depth == group.patterns.size()) {
      emit(passed);
      return;
    }
    const CompiledPattern& pattern = group.patterns[depth];
    rdf::MatchCursor cursor =
        store_.Scan(Value(pattern.subject), Value(pattern.predicate),
                    Value(pattern.object));
    while (const Triple* t = cursor.Next()) {
      if (stop_) break;
      VarSlot undo[3];
      int undo_count = 0;
      bool consistent = true;
      auto bind = [&](const CompiledNode& node, TermId id) {
        if (!node.is_variable) return;
        TermId& slot = slots_[node.slot];
        if (slot == rdf::kInvalidTermId) {
          slot = id;
          undo[undo_count++] = node.slot;
        } else if (slot != id) {
          consistent = false;
        }
      };
      bind(pattern.subject, t->subject);
      if (consistent) bind(pattern.predicate, t->predicate);
      if (consistent) bind(pattern.object, t->object);
      if (consistent) {
        uint64_t local = passed;
        if (FiltersPass(&local)) EnumerateGroup(group, depth + 1, local, emit);
      }
      for (int i = 0; i < undo_count; ++i) {
        slots_[undo[i]] = rdf::kInvalidTermId;
      }
    }
  }

  void ApplyOptionals(size_t index, uint64_t passed) {
    if (stop_) return;
    if (index >= plan_.optionals.size()) {
      // Final filters: anything ready and not yet verified on this path
      // (filters over never-bound variables stay not-ready and pass).
      if (!FiltersPass(&passed)) return;
      if (!query_.aggregates.empty()) {
        // Aggregation consumes the full binding (the aggregated variables
        // may not be projected), as a slot snapshot in id space.
        agg_id_rows_.push_back(slots_);
      } else {
        id_rows_.push_back(ProjectIds());
      }
      size_t produced =
          query_.aggregates.empty() ? id_rows_.size() : agg_id_rows_.size();
      if (produced >= options_.max_rows) stop_ = true;
      if (query_.is_ask) stop_ = true;
      if (query_.limit && !query_.distinct && query_.order_by.empty() &&
          query_.aggregates.empty() && query_.offset == 0 &&
          produced >= *query_.limit) {
        stop_ = true;
      }
      return;
    }
    const CompiledGroup& group = plan_.optionals[index];
    if (group.unmatchable) {
      ApplyOptionals(index + 1, passed);
      return;
    }
    bool matched = false;
    EnumerateGroup(group, 0, passed, [&](uint64_t local) {
      matched = true;
      ApplyOptionals(index + 1, local);
    });
    if (!matched) ApplyOptionals(index + 1, passed);
  }

  std::vector<TermId> ProjectIds() const {
    if (query_.select_all) return slots_;
    std::vector<TermId> row(plan_.select_slots.size(), rdf::kInvalidTermId);
    for (size_t i = 0; i < plan_.select_slots.size(); ++i) {
      if (plan_.select_slots[i] != kNoSlot) row[i] = slots_[plan_.select_slots[i]];
    }
    return row;
  }

  void DedupIdRows() {
    std::unordered_set<std::vector<TermId>, IdRowHash> seen;
    std::vector<std::vector<TermId>> unique;
    unique.reserve(id_rows_.size());
    for (std::vector<TermId>& row : id_rows_) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    id_rows_ = std::move(unique);
  }

  // ORDER BY over id rows, with exactly the CompareBindingsForOrder
  // semantics: a key variable outside the projection compares as unbound.
  void OrderIdRows() {
    std::vector<int> columns(plan_.order_slots.size(), -1);
    for (size_t k = 0; k < plan_.order_slots.size(); ++k) {
      VarSlot slot = plan_.order_slots[k].slot;
      if (slot == kNoSlot) continue;
      if (query_.select_all) {
        columns[k] = static_cast<int>(slot);
      } else {
        for (size_t i = 0; i < plan_.select_slots.size(); ++i) {
          if (plan_.select_slots[i] == slot) {
            columns[k] = static_cast<int>(i);
            break;
          }
        }
      }
    }
    auto compare = [&](const std::vector<TermId>& a,
                       const std::vector<TermId>& b) {
      for (size_t k = 0; k < plan_.order_slots.size(); ++k) {
        int col = columns[k];
        TermId ia = col >= 0 ? a[col] : rdf::kInvalidTermId;
        TermId ib = col >= 0 ? b[col] : rdf::kInvalidTermId;
        bool ha = ia != rdf::kInvalidTermId;
        bool hb = ib != rdf::kInvalidTermId;
        int cmp = 0;
        if (ha != hb) {
          cmp = ha ? 1 : -1;  // unbound first
        } else if (ha && hb && ia != ib) {
          const std::string& la = dict_.term(ia).lexical();
          const std::string& lb = dict_.term(ib).lexical();
          double da = 0.0, db = 0.0;
          if (ParseDouble(la, &da) && ParseDouble(lb, &db)) {
            cmp = da < db ? -1 : (da > db ? 1 : 0);
          } else {
            int c = la.compare(lb);
            cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
          }
        }
        if (plan_.order_slots[k].descending) cmp = -cmp;
        if (cmp != 0) return cmp < 0;
      }
      return false;
    };
    std::stable_sort(id_rows_.begin(), id_rows_.end(), compare);
  }

  std::vector<Binding> Materialize() const {
    std::vector<Binding> out;
    out.reserve(id_rows_.size());
    for (const std::vector<TermId>& row : id_rows_) {
      Binding binding;
      if (query_.select_all) {
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i] != rdf::kInvalidTermId) {
            binding.emplace(plan_.slot_names[i], dict_.term(row[i]));
          }
        }
      } else {
        for (size_t i = 0; i < row.size(); ++i) {
          if (row[i] != rdf::kInvalidTermId) {
            binding.emplace(query_.select[i], dict_.term(row[i]));
          }
        }
      }
      out.push_back(std::move(binding));
    }
    return out;
  }

  const CompiledQuery& plan_;
  const Query& query_;
  const TripleStore& store_;
  const rdf::Dictionary& dict_;
  const ExecuteOptions& options_;

  std::vector<TermId> slots_;                // current path binding
  std::vector<TermId> regs_;                 // operator-tree register file
  std::vector<std::vector<TermId>> id_rows_;  // non-aggregate results
  // Full slot snapshots for aggregation (decoded lazily at fold time).
  std::vector<std::vector<TermId>> agg_id_rows_;
  std::vector<std::vector<size_t>>* explain_actuals_ = nullptr;
  bool stop_ = false;
};

}  // namespace

Binding Project(const Query& query, const Binding& binding) {
  if (query.select_all) return binding;
  Binding projected;
  for (const std::string& var : query.select) {
    auto it = binding.find(var);
    if (it != binding.end()) projected.emplace(var, it->second);
  }
  return projected;
}

Result<std::vector<Binding>> Execute(const Query& query,
                                     const rdf::TripleStore& store,
                                     const ExecuteOptions& options) {
  CompiledQuery local;
  const CompiledQuery* plan = options.plan;
  if (plan != nullptr) {
    if (plan->query != &query || plan->store != &store) {
      return Status::InvalidArgument(
          "precompiled plan does not match query/store");
    }
  } else {
    CompileOptions compile_options;
    compile_options.stats = options.stats;
    local = CompileQuery(query, store, compile_options);
    plan = &local;
  }
  return CompiledExecutor(*plan, options).Run();
}

Result<std::string> Explain(const Query& query, const rdf::TripleStore& store,
                            const ExecuteOptions& options) {
  CompiledQuery local;
  const CompiledQuery* plan = options.plan;
  if (plan != nullptr) {
    if (plan->query != &query || plan->store != &store) {
      return Status::InvalidArgument(
          "precompiled plan does not match query/store");
    }
    if (plan->plans.empty()) plan = nullptr;  // recompile with plans
  }
  if (plan == nullptr) {
    CompileOptions compile_options;
    compile_options.stats = options.stats;
    compile_options.build_physical_plans = true;
    local = CompileQuery(query, store, compile_options);
    plan = &local;
  }
  CompiledExecutor executor(*plan, options);
  std::vector<std::vector<size_t>> actuals(plan->alternatives.size());
  executor.set_explain_actuals(&actuals);
  Result<std::vector<Binding>> rows = executor.Run();
  if (!rows.ok()) return rows.status();

  std::string out;
  for (size_t a = 0; a < plan->alternatives.size(); ++a) {
    if (plan->alternatives.size() > 1) {
      out += "alternative " + std::to_string(a) + ":\n";
    }
    const std::vector<size_t>* actual =
        a < actuals.size() && !actuals[a].empty() ? &actuals[a] : nullptr;
    out += RenderPlan(plan->plans[a], *plan, a, actual);
  }
  out += "rows returned: " + std::to_string(rows->size()) + "\n";
  return out;
}

Result<bool> Ask(const Query& query, const rdf::TripleStore& store,
                 const ExecuteOptions& options) {
  if (!query.is_ask) {
    return Status::InvalidArgument("query is not an ASK query");
  }
  Result<std::vector<Binding>> rows = Execute(query, store, options);
  if (!rows.ok()) return rows.status();
  return !rows->empty();
}

}  // namespace alex::sparql
