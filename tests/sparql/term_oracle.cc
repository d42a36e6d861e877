#include "sparql/term_oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/strings.h"
#include "sparql/compiler.h"
#include "sparql/executor.h"

namespace alex::sparql {
namespace {

using rdf::TermId;
using rdf::TermPattern;
using rdf::Triple;
using rdf::TripleStore;

// Backtracking matcher. Constants are resolved to ids once at
// construction, and a parallel name -> TermId binding removes all
// dictionary lookups from the enumeration loop.
class Matcher {
 public:
  Matcher(const Query& query, const TripleStore& store)
      : query_(query), store_(store) {
    auto add = [&](const TriplePattern& pattern) {
      ResolvedPattern resolved;
      const PatternNode* nodes[3] = {&pattern.subject, &pattern.predicate,
                                     &pattern.object};
      for (int i = 0; i < 3; ++i) {
        if (nodes[i]->is_variable) {
          resolved.nodes[i].name = &nodes[i]->variable;
        } else if (std::optional<TermId> id =
                       store.dictionary().Lookup(nodes[i]->term)) {
          resolved.nodes[i].constant = *id;
        } else {
          resolved.unmatchable = true;
        }
      }
      resolved_.emplace(&pattern, resolved);
    };
    for (const std::vector<TriplePattern>* patterns : query.Alternatives()) {
      for (const TriplePattern& pattern : *patterns) add(pattern);
    }
    for (const std::vector<TriplePattern>& group : query.optionals) {
      for (const TriplePattern& pattern : group) add(pattern);
    }
  }

  // `stop` lets the caller cut enumeration short (LIMIT / max_rows / ASK).
  Status Enumerate(std::vector<const TriplePattern*> remaining,
                   Binding* binding, const std::function<Status()>& emit,
                   const bool* stop) {
    if (*stop) return Status::Ok();
    if (remaining.empty()) return emit();
    // Pick the most selective pattern (fewest unbound variables).
    size_t best = 0;
    int best_unbound = 4;
    for (size_t i = 0; i < remaining.size(); ++i) {
      int unbound = remaining[i]->UnboundCount(*binding);
      if (unbound < best_unbound) {
        best_unbound = unbound;
        best = i;
      }
    }
    const TriplePattern* pattern = remaining[best];
    remaining.erase(remaining.begin() + best);

    const ResolvedPattern& resolved = resolved_.at(pattern);
    if (resolved.unmatchable) return Status::Ok();
    TermPattern positions[3];
    for (int i = 0; i < 3; ++i) {
      if (resolved.nodes[i].name != nullptr) {
        auto it = id_binding_.find(*resolved.nodes[i].name);
        if (it != id_binding_.end()) positions[i] = it->second;
      } else {
        positions[i] = resolved.nodes[i].constant;
      }
    }
    const rdf::Dictionary& dict = store_.dictionary();
    rdf::MatchCursor cursor =
        store_.Scan(positions[0], positions[1], positions[2]);
    while (const Triple* t = cursor.Next()) {
      if (*stop) break;
      std::vector<const std::string*> added;
      bool consistent = true;
      auto bind = [&](const PatternNode& node, TermId id) {
        if (!node.is_variable) return;
        auto [it, inserted] = id_binding_.try_emplace(node.variable, id);
        if (inserted) {
          binding->emplace(node.variable, dict.term(id));
          added.push_back(&node.variable);
        } else if (it->second != id) {
          consistent = false;
        }
      };
      bind(pattern->subject, t->subject);
      if (consistent) bind(pattern->predicate, t->predicate);
      if (consistent) bind(pattern->object, t->object);
      if (consistent && FiltersPass(*binding)) {
        Status st = Enumerate(remaining, binding, emit, stop);
        if (!st.ok()) return st;
      }
      for (const std::string* var : added) {
        binding->erase(*var);
        id_binding_.erase(*var);
      }
    }
    return Status::Ok();
  }

  // Every FILTER whose variables `binding` binds holds.
  bool FiltersPass(const Binding& binding) const {
    for (const auto& filter : query_.filters) {
      if (FilterReady(*filter, binding) && !EvalFilter(*filter, binding)) {
        return false;
      }
    }
    return true;
  }

 private:
  struct ResolvedNode {
    const std::string* name = nullptr;  // variable name; nullptr = constant
    TermPattern constant;               // resolved constant id
  };
  struct ResolvedPattern {
    ResolvedNode nodes[3];
    bool unmatchable = false;  // some constant is absent from the store
  };

  const Query& query_;
  const TripleStore& store_;
  std::unordered_map<const TriplePattern*, ResolvedPattern> resolved_;
  // Mirror of the term binding in id space; kept in sync by bind/unbind.
  std::unordered_map<std::string, TermId> id_binding_;
};

// Groups `rows` by the GROUP BY keys and evaluates the aggregate
// projections per group, in order of each group's first row. With no
// GROUP BY the whole input is one group (even when empty: COUNT(*) of
// nothing is 0). COUNT(?v) counts bound rows, SUM / AVG fold the values
// that parse as numbers, and MIN / MAX keep the first term attaining a
// strict extremum.
std::vector<Binding> ApplyAggregates(const Query& query,
                                     const std::vector<Binding>& rows) {
  std::vector<std::pair<Binding, std::vector<const Binding*>>> groups;
  std::map<Binding, size_t> index;
  for (const Binding& row : rows) {
    Binding key;
    for (const std::string& var : query.group_by) {
      auto it = row.find(var);
      if (it != row.end()) key.emplace(var, it->second);
    }
    auto [entry, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.push_back({std::move(key), {}});
    groups[entry->second].second.push_back(&row);
  }
  if (groups.empty() && query.group_by.empty()) {
    groups.push_back({Binding{}, {}});  // global aggregate over zero rows
  }

  std::vector<Binding> out;
  out.reserve(groups.size());
  for (const auto& [key, members] : groups) {
    Binding result = key;
    for (const Aggregate& agg : query.aggregates) {
      if (agg.kind == Aggregate::Kind::kCount) {
        size_t count = 0;
        for (const Binding* row : members) {
          if (agg.variable.empty() || row->count(agg.variable) > 0) ++count;
        }
        result.emplace(agg.as, rdf::Term::IntegerLiteral(
                                   static_cast<int64_t>(count)));
        continue;
      }
      double sum = 0.0;
      size_t n = 0;
      const rdf::Term* min_term = nullptr;
      const rdf::Term* max_term = nullptr;
      double min_value = 0.0, max_value = 0.0;
      for (const Binding* row : members) {
        auto it = row->find(agg.variable);
        if (it == row->end()) continue;
        double value = 0.0;
        if (!ParseDouble(it->second.lexical(), &value)) continue;
        sum += value;
        ++n;
        if (min_term == nullptr || value < min_value) {
          min_term = &it->second;
          min_value = value;
        }
        if (max_term == nullptr || value > max_value) {
          max_term = &it->second;
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
          if (min_term != nullptr) result.emplace(agg.as, *min_term);
          break;
        case Aggregate::Kind::kMax:
          if (max_term != nullptr) result.emplace(agg.as, *max_term);
          break;
        case Aggregate::Kind::kCount:
          break;  // handled above
      }
    }
    out.push_back(std::move(result));
  }
  return out;
}

// Result tail: aggregation, DISTINCT, ORDER BY, OFFSET, LIMIT.
std::vector<Binding> FinishTermRows(const Query& query,
                                    std::vector<Binding> rows) {
  if (!query.aggregates.empty()) rows = ApplyAggregates(query, rows);
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
  if (query.limit && rows.size() > *query.limit) rows.resize(*query.limit);
  return rows;
}

}  // namespace

Result<std::vector<Binding>> ExecuteGreedy(const Query& query,
                                           const rdf::TripleStore& store,
                                           const rdf::DatasetStats* stats) {
  CompileOptions compile_options;
  compile_options.stats = stats;
  compile_options.build_physical_plans = false;
  const CompiledQuery plan_less = CompileQuery(query, store, compile_options);
  ExecuteOptions options;
  options.stats = stats;
  options.plan = &plan_less;
  return Execute(query, store, options);
}

Result<std::vector<Binding>> OracleExecute(const Query& query,
                                           const rdf::TripleStore& store) {
  const size_t max_rows = ExecuteOptions{}.max_rows;
  std::vector<Binding> rows;
  bool stop = false;
  Matcher matcher(query, store);

  // OPTIONAL groups are left-outer-joined one after another: each solution
  // is extended by every match of the group, or kept unchanged when the
  // group has no match.
  std::function<Status(size_t, Binding*)> apply_optionals =
      [&](size_t index, Binding* binding) -> Status {
    if (index >= query.optionals.size()) {
      // Final filters (some may involve only optional variables).
      if (!matcher.FiltersPass(*binding)) return Status::Ok();
      // Aggregation needs the full binding (the aggregated variables may
      // not be projected); projection happens inside ApplyAggregates.
      rows.push_back(query.aggregates.empty() ? Project(query, *binding)
                                              : *binding);
      if (rows.size() >= max_rows) stop = true;
      if (query.is_ask) stop = true;
      if (query.limit && !query.distinct && query.order_by.empty() &&
          query.aggregates.empty() && query.offset == 0 &&
          rows.size() >= *query.limit) {
        stop = true;
      }
      return Status::Ok();
    }
    std::vector<const TriplePattern*> group;
    for (const TriplePattern& p : query.optionals[index]) group.push_back(&p);
    bool matched = false;
    Status st = matcher.Enumerate(
        group, binding,
        [&]() -> Status {
          matched = true;
          return apply_optionals(index + 1, binding);
        },
        &stop);
    if (!st.ok()) return st;
    if (!matched) return apply_optionals(index + 1, binding);
    return Status::Ok();
  };

  for (const std::vector<TriplePattern>* patterns : query.Alternatives()) {
    if (stop) break;
    std::vector<const TriplePattern*> remaining;
    remaining.reserve(patterns->size());
    for (const TriplePattern& p : *patterns) remaining.push_back(&p);
    Binding binding;
    Status st = matcher.Enumerate(
        remaining, &binding,
        [&]() -> Status { return apply_optionals(0, &binding); }, &stop);
    if (!st.ok()) return st;
  }
  return FinishTermRows(query, std::move(rows));
}

}  // namespace alex::sparql
