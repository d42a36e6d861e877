// Bottom-up dynamic-programming plan generation for one basic graph
// pattern, in the RDF-3X style: enumerate connected subsets of the query
// graph, keep the cheapest subplan per interesting order (the variable the
// subplan's output is sorted on), and pick join methods by a cost model fed
// by rdf::DatasetStats and exact index-range counts.
//
// Leaf plans are ordered index scans — one candidate per index whose
// constant positions form a prefix — plus AggregatedIndexScan variants that
// skip duplicate runs when trailing free positions are provably
// unobservable (DISTINCT / ASK queries where the variable occurs nowhere
// else). Joins: MergeJoin when both inputs arrive sorted on a shared
// variable, HashJoin as the general fallback (also covering cross products
// of disconnected components), and IndexLookupJoin, which streams the left
// input and point-probes one pattern — the strategy space of the greedy
// executor, so a planned tree never structurally loses to it. Applicable
// FILTERs are placed at the lowest covering operator after the join order
// is fixed.
#ifndef ALEX_SPARQL_PLANGEN_H_
#define ALEX_SPARQL_PLANGEN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "rdf/dataset_stats.h"
#include "sparql/compiler.h"
#include "sparql/physical_plan.h"

namespace alex::sparql {

// DP size cap: subset enumeration is O(3^n); beyond this the compiler's
// greedy order is good enough and compile time matters more.
inline constexpr size_t kMaxDpPatterns = 9;

// Builds the physical plan for compiled.alternatives[alternative]. Returns
// a plan with root == -1 (greedy fallback) for empty or unmatchable groups
// and for groups larger than kMaxDpPatterns.
PhysicalPlan BuildPhysicalPlan(const CompiledQuery& compiled,
                               size_t alternative,
                               const rdf::DatasetStats* stats);

// Human-readable operator tree with per-operator cardinality and cost
// estimates. `actual_rows`, when given, is parallel to plan.ops and holds
// rows actually produced per operator (from an instrumented execution).
std::string RenderPlan(const PhysicalPlan& plan, const CompiledQuery& compiled,
                       size_t alternative,
                       const std::vector<size_t>* actual_rows = nullptr);

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_PLANGEN_H_
