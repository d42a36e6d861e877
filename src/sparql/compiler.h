// Query compilation: from the parsed algebra to a TermId-space plan bound
// to one TripleStore.
//
// A term-space matcher resolves constants through the dictionary, keys
// bindings by variable *name*, and orders joins by the unbound-variable
// count alone. Compilation hoists all of that out of the executor's hot
// loop, once per (query, store):
//
//   * every constant PatternNode is resolved to its TermId (a pattern with
//     a constant the store has never seen marks its group unmatchable);
//   * every variable gets a dense slot, so a binding is a flat TermId array
//     indexed by slot instead of a string-keyed map of Term copies;
//   * triple patterns are ordered by estimated cardinality: the exact index
//     range count of the constant-bound prefix (TripleStore::CountMatches),
//     shrunk by per-predicate distinct counts from rdf::DatasetStats for
//     positions whose variable is bound by an earlier pattern — instead of
//     just counting unbound variables;
//   * single-variable FILTER expressions are compiled to id-space
//     predicates: a bitmap over the dictionary, one truth bit per TermId,
//     so the executor tests a bit instead of re-evaluating the expression
//     tree (term-space evaluation remains for multi-variable filters).
//
// A CompiledQuery borrows the Query and the TripleStore; both must outlive
// it. Compiling is cheap (dictionary lookups plus a few binary searches per
// pattern; the filter bitmaps cost one pass over the dictionary and are
// only built for queries that have eligible filters), so per-episode
// workloads can compile on every execution or reuse the plan — results are
// identical either way.
#ifndef ALEX_SPARQL_COMPILER_H_
#define ALEX_SPARQL_COMPILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/dataset_stats.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"
#include "sparql/physical_plan.h"

namespace alex::sparql {

// One pattern position: a resolved constant id or a variable slot.
struct CompiledNode {
  bool is_variable = false;
  VarSlot slot = kNoSlot;                // valid iff is_variable
  rdf::TermId id = rdf::kInvalidTermId;  // valid iff !is_variable
};

struct CompiledPattern {
  CompiledNode subject;
  CompiledNode predicate;
  CompiledNode object;
  // The compile-time cardinality estimate that ordered this pattern
  // (diagnostics only).
  double estimated_rows = 0.0;
};

// A basic graph pattern in execution order: the required patterns of one
// UNION alternative, or one OPTIONAL group.
struct CompiledGroup {
  std::vector<CompiledPattern> patterns;
  // True when some constant of the group failed to resolve: the group can
  // produce no match (for an OPTIONAL group: never extends a solution).
  bool unmatchable = false;
};

// A FILTER bound to slots. When `bitmap` is non-empty the filter touches
// exactly one variable and bitmap[id] holds the precomputed verdict for
// binding that variable to TermId `id`; otherwise the executor falls back
// to term-space EvalFilter over `expr`.
struct CompiledFilter {
  const FilterExpr* expr = nullptr;
  std::vector<VarSlot> slots;  // distinct variable slots referenced
  std::vector<bool> bitmap;    // dictionary-sized truth table (may be empty)
  VarSlot bitmap_slot = kNoSlot;
};

struct CompiledQuery {
  const Query* query = nullptr;            // borrowed
  const rdf::TripleStore* store = nullptr;  // borrowed

  size_t num_slots = 0;
  std::vector<std::string> slot_names;  // slot -> variable name

  // One group per UNION alternative (alternative 0 first), each in
  // statistics-driven execution order.
  std::vector<CompiledGroup> alternatives;
  std::vector<CompiledGroup> optionals;

  // One physical operator tree per alternative (parallel to
  // `alternatives`), produced by sparql/plangen.h. A plan with root == -1
  // means the generator declined and the executor enumerates that group
  // greedily. Empty when CompileOptions::build_physical_plans is false:
  // then every group is enumerated greedily.
  std::vector<PhysicalPlan> plans;

  // Slots whose values anyone outside a single pattern observes:
  // projection (or select_all), GROUP BY, aggregates, ORDER BY, FILTERs,
  // and every pattern of every OPTIONAL group. A slot *not* in this set
  // that occurs in exactly one pattern position may be eliminated by an
  // AggregatedIndexScan.
  std::vector<bool> needed_slots;

  std::vector<CompiledFilter> filters;

  // Projection in slot space (empty when select_all; then all slots are
  // projected in slot order).
  std::vector<VarSlot> select_slots;
  std::vector<VarSlot> group_by_slots;    // parallel to query->group_by
  std::vector<VarSlot> aggregate_slots;   // parallel to query->aggregates;
                                          // kNoSlot for COUNT(*)
  struct OrderSlot {
    VarSlot slot = kNoSlot;
    bool descending = false;
  };
  std::vector<OrderSlot> order_slots;
};

struct CompileOptions {
  // Optional precomputed statistics for the store; used to estimate how
  // much a bound variable shrinks a pattern's index range. Without them the
  // compiler still orders by the exact constant-prefix range counts.
  const rdf::DatasetStats* stats = nullptr;
  // Build a physical operator tree per alternative (sparql/plangen.h).
  // Without them the executor enumerates every group in the greedy order
  // above: the baseline the tests and bench_gates compare plans against.
  bool build_physical_plans = true;
};

// Compiles `query` against `store`. The returned plan borrows both.
CompiledQuery CompileQuery(const Query& query, const rdf::TripleStore& store,
                           const CompileOptions& options = {});

// Cardinality estimate for one pattern given which slots are already bound:
// the exact index-range count over the constant positions, divided by a
// distinct-count estimate for every bound variable position. Shared by the
// greedy join orderer and the DP plan generator's cost model.
double EstimatePatternRows(const CompiledPattern& pattern,
                           const std::vector<bool>& bound,
                           const rdf::TripleStore& store,
                           const rdf::DatasetStats* stats);

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_COMPILER_H_
