#include "sparql/compiler.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "sparql/plangen.h"

namespace alex::sparql {
namespace {

using rdf::TermId;
using rdf::TermPattern;

// Assigns slots in deterministic first-appearance order over a fixed walk
// of the query, so slot numbering is independent of join ordering.
class SlotTable {
 public:
  VarSlot SlotOf(const std::string& name) {
    auto [it, inserted] = index_.try_emplace(name, names_.size());
    if (inserted) names_.push_back(name);
    return static_cast<VarSlot>(it->second);
  }

  VarSlot Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? kNoSlot : static_cast<VarSlot>(it->second);
  }

  std::vector<std::string> names_;

 private:
  std::unordered_map<std::string, size_t> index_;
};

CompiledNode CompileNode(const PatternNode& node, SlotTable* slots,
                         const rdf::TripleStore& store, bool* unmatchable) {
  CompiledNode out;
  if (node.is_variable) {
    out.is_variable = true;
    out.slot = slots->SlotOf(node.variable);
    return out;
  }
  if (std::optional<TermId> id = store.dictionary().Lookup(node.term)) {
    out.id = *id;
  } else {
    *unmatchable = true;  // constant the store has never seen
  }
  return out;
}

}  // namespace

double EstimatePatternRows(const CompiledPattern& pattern,
                           const std::vector<bool>& bound,
                           const rdf::TripleStore& store,
                           const rdf::DatasetStats* stats) {
  auto constant = [](const CompiledNode& node) -> TermPattern {
    if (node.is_variable) return std::nullopt;
    return node.id;
  };
  double rows = static_cast<double>(store.CountMatches(
      constant(pattern.subject), constant(pattern.predicate),
      constant(pattern.object)));

  const rdf::PredicateStats* pred_stats = nullptr;
  if (!pattern.predicate.is_variable && stats != nullptr) {
    pred_stats = stats->Find(pattern.predicate.id);
  }
  // Without statistics every bound variable still shrinks its pattern by a
  // nominal factor, which breaks ties toward joining connected patterns.
  constexpr double kDefaultShrink = 50.0;
  auto shrink_for = [&](const CompiledNode& node, bool subject_position,
                        bool predicate_position) -> double {
    if (!node.is_variable || node.slot >= bound.size() || !bound[node.slot]) {
      return 1.0;
    }
    if (predicate_position) {
      return stats != nullptr
                 ? std::max<double>(1.0, static_cast<double>(stats->predicates))
                 : kDefaultShrink;
    }
    if (pred_stats != nullptr) {
      return std::max<double>(
          1.0, static_cast<double>(subject_position
                                       ? pred_stats->distinct_subjects
                                       : pred_stats->distinct_objects));
    }
    if (stats != nullptr) {
      return std::max<double>(
          1.0, static_cast<double>(subject_position
                                       ? stats->subjects
                                       : stats->distinct_objects));
    }
    return kDefaultShrink;
  };
  rows /= shrink_for(pattern.subject, /*subject=*/true, /*predicate=*/false);
  rows /= shrink_for(pattern.predicate, /*subject=*/false, /*predicate=*/true);
  rows /= shrink_for(pattern.object, /*subject=*/false, /*predicate=*/false);
  return rows;
}

namespace {

// Dictionaries larger than this skip filter-bitmap construction (the
// bitmap costs one expression evaluation per term).
constexpr size_t kMaxBitmapTerms = 1u << 22;

// Greedily orders `patterns` by estimated cardinality: repeatedly pick the
// cheapest pattern under the slots bound so far (ties by original pattern
// index, so the order is deterministic). `pre_bound` holds slots bound
// outside the group (an OPTIONAL group starts with the required patterns'
// slots bound).
void OrderGroup(CompiledGroup* group, const std::vector<bool>& pre_bound,
                size_t num_slots, const rdf::TripleStore& store,
                const rdf::DatasetStats* stats) {
  std::vector<bool> bound = pre_bound;
  bound.resize(num_slots, false);
  std::vector<CompiledPattern> ordered;
  ordered.reserve(group->patterns.size());
  std::vector<bool> used(group->patterns.size(), false);
  for (size_t step = 0; step < group->patterns.size(); ++step) {
    size_t best = group->patterns.size();
    double best_rows = 0.0;
    for (size_t i = 0; i < group->patterns.size(); ++i) {
      if (used[i]) continue;
      double rows =
          EstimatePatternRows(group->patterns[i], bound, store, stats);
      if (best == group->patterns.size() || rows < best_rows) {
        best = i;
        best_rows = rows;
      }
    }
    used[best] = true;
    CompiledPattern chosen = group->patterns[best];
    chosen.estimated_rows = best_rows;
    for (const CompiledNode* node :
         {&chosen.subject, &chosen.predicate, &chosen.object}) {
      if (node->is_variable) bound[node->slot] = true;
    }
    ordered.push_back(chosen);
  }
  group->patterns = std::move(ordered);
}

CompiledGroup CompileGroup(const std::vector<TriplePattern>& patterns,
                           SlotTable* slots,
                           const rdf::TripleStore& store) {
  CompiledGroup group;
  group.patterns.reserve(patterns.size());
  for (const TriplePattern& pattern : patterns) {
    CompiledPattern compiled;
    compiled.subject =
        CompileNode(pattern.subject, slots, store, &group.unmatchable);
    compiled.predicate =
        CompileNode(pattern.predicate, slots, store, &group.unmatchable);
    compiled.object =
        CompileNode(pattern.object, slots, store, &group.unmatchable);
    group.patterns.push_back(compiled);
  }
  return group;
}

void CollectFilterSlots(const FilterExpr& expr, const SlotTable& slots,
                        std::vector<VarSlot>* out) {
  for (const auto& child : expr.children) {
    CollectFilterSlots(*child, slots, out);
  }
  for (const std::optional<PatternNode>* node : {&expr.lhs_node,
                                                 &expr.rhs_node}) {
    if (node->has_value() && (*node)->is_variable) {
      out->push_back(slots.Find((*node)->variable));
    }
  }
}

}  // namespace

CompiledQuery CompileQuery(const Query& query, const rdf::TripleStore& store,
                           const CompileOptions& options) {
  CompiledQuery compiled;
  compiled.query = &query;
  compiled.store = &store;

  SlotTable slots;
  // Pattern variables first (they are the ones bound during enumeration),
  // then every variable the query mentions elsewhere, so projection /
  // ordering / filters on never-bound variables still get a slot.
  for (const std::vector<TriplePattern>* patterns : query.Alternatives()) {
    compiled.alternatives.push_back(CompileGroup(*patterns, &slots, store));
  }
  for (const std::vector<TriplePattern>& group : query.optionals) {
    compiled.optionals.push_back(CompileGroup(group, &slots, store));
  }
  for (const std::string& var : query.select) slots.SlotOf(var);
  for (const std::string& var : query.group_by) slots.SlotOf(var);
  for (const Aggregate& agg : query.aggregates) {
    if (!agg.variable.empty()) slots.SlotOf(agg.variable);
  }
  for (const OrderKey& key : query.order_by) slots.SlotOf(key.variable);
  std::vector<VarSlot> filter_slot_scratch;
  for (const auto& filter : query.filters) {
    // Touch filter variables that exist nowhere else. Variables of `filter`
    // that never appear in any pattern keep the filter never ready
    // (FilterReady); they still need slots so the executor can see them
    // stay unbound.
    CollectFilterSlots(*filter, slots, &filter_slot_scratch);
    for (const std::optional<PatternNode>* node :
         {&filter->lhs_node, &filter->rhs_node}) {
      if (node->has_value() && (*node)->is_variable) {
        slots.SlotOf((*node)->variable);
      }
    }
  }
  // Second pass over filter trees now that every variable has a slot.
  compiled.filters.reserve(query.filters.size());
  for (const auto& filter : query.filters) {
    CompiledFilter cf;
    cf.expr = filter.get();
    std::vector<VarSlot> raw;
    CollectFilterSlots(*filter, slots, &raw);
    for (VarSlot slot : raw) {
      if (slot == kNoSlot) continue;  // defensive; all vars have slots now
      if (std::find(cf.slots.begin(), cf.slots.end(), slot) ==
          cf.slots.end()) {
        cf.slots.push_back(slot);
      }
    }
    std::sort(cf.slots.begin(), cf.slots.end());
    compiled.filters.push_back(std::move(cf));
  }

  compiled.num_slots = slots.names_.size();
  compiled.slot_names = slots.names_;

  // Statistics-driven join order, per group. OPTIONAL groups start with
  // every slot of the required patterns bound.
  std::vector<bool> no_bound(compiled.num_slots, false);
  for (CompiledGroup& group : compiled.alternatives) {
    OrderGroup(&group, no_bound, compiled.num_slots, store, options.stats);
  }
  std::vector<bool> required_bound(compiled.num_slots, false);
  for (const CompiledGroup& group : compiled.alternatives) {
    for (const CompiledPattern& pattern : group.patterns) {
      for (const CompiledNode* node :
           {&pattern.subject, &pattern.predicate, &pattern.object}) {
        if (node->is_variable) required_bound[node->slot] = true;
      }
    }
  }
  for (CompiledGroup& group : compiled.optionals) {
    OrderGroup(&group, required_bound, compiled.num_slots, store,
               options.stats);
  }

  // Projection / grouping / ordering in slot space.
  if (!query.select_all) {
    for (const std::string& var : query.select) {
      compiled.select_slots.push_back(slots.Find(var));
    }
  }
  for (const std::string& var : query.group_by) {
    compiled.group_by_slots.push_back(slots.Find(var));
  }
  for (const Aggregate& agg : query.aggregates) {
    compiled.aggregate_slots.push_back(
        agg.variable.empty() ? kNoSlot : slots.Find(agg.variable));
  }
  for (const OrderKey& key : query.order_by) {
    compiled.order_slots.push_back({slots.Find(key.variable),
                                    key.descending});
  }

  // Single-variable filters compile to a truth bit per dictionary term.
  const rdf::Dictionary& dict = store.dictionary();
  if (dict.size() <= kMaxBitmapTerms) {
    for (CompiledFilter& cf : compiled.filters) {
      if (cf.slots.size() != 1) continue;
      cf.bitmap_slot = cf.slots[0];
      const std::string& name = compiled.slot_names[cf.bitmap_slot];
      Binding probe;
      auto it = probe.emplace(name, rdf::Term()).first;
      cf.bitmap.resize(dict.size());
      for (TermId id = 0; id < dict.size(); ++id) {
        it->second = dict.term(id);
        cf.bitmap[id] = EvalFilter(*cf.expr, probe);
      }
    }
  }

  // Slots observed outside a single pattern occurrence; everything the
  // AggregatedIndexScan eligibility test must preserve.
  compiled.needed_slots.assign(compiled.num_slots, query.select_all);
  auto need = [&](VarSlot slot) {
    if (slot != kNoSlot) compiled.needed_slots[slot] = true;
  };
  for (VarSlot slot : compiled.select_slots) need(slot);
  for (VarSlot slot : compiled.group_by_slots) need(slot);
  for (VarSlot slot : compiled.aggregate_slots) need(slot);
  for (const CompiledQuery::OrderSlot& key : compiled.order_slots) {
    need(key.slot);
  }
  for (const CompiledFilter& cf : compiled.filters) {
    for (VarSlot slot : cf.slots) need(slot);
  }
  for (const CompiledGroup& group : compiled.optionals) {
    for (const CompiledPattern& pattern : group.patterns) {
      for (const CompiledNode* node :
           {&pattern.subject, &pattern.predicate, &pattern.object}) {
        if (node->is_variable) need(node->slot);
      }
    }
  }

  if (options.build_physical_plans) {
    compiled.plans.reserve(compiled.alternatives.size());
    for (size_t i = 0; i < compiled.alternatives.size(); ++i) {
      compiled.plans.push_back(BuildPhysicalPlan(compiled, i, options.stats));
    }
  }
  return compiled;
}

}  // namespace alex::sparql
