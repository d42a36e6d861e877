// Query execution over a single TripleStore.
//
// One engine: the query is compiled to TermId space (sparql/compiler.h)
// and each UNION alternative's required patterns run as the pipelined
// physical operator tree the bottom-up DP plan generator picked
// (sparql/plangen.h): ordered index scans, merge / hash / index-lookup
// joins, aggregated scans, and plan-placed filters, all pull-based over a
// flat register file. OPTIONAL groups, the groups the plan generator
// declines (empty, unmatchable, or beyond its size cap), and every group
// of a CompiledQuery compiled without physical plans are enumerated
// pattern-at-a-time in the compiler's greedy join order instead. Either
// way the row multiset is the same; enumeration ORDER depends on the join
// order, so order-sensitive callers must use ORDER BY. GROUP BY
// aggregation runs entirely in TermId space; only group keys and winning
// MIN/MAX terms are decoded through the dictionary.
//
// tests/sparql/term_oracle.h holds the independent term-space matcher that
// the differential tests and bench_gates check this engine against.
#ifndef ALEX_SPARQL_EXECUTOR_H_
#define ALEX_SPARQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"
#include "sparql/compiler.h"

namespace alex::sparql {

struct ExecuteOptions {
  // Hard cap on produced rows before projection (safety valve).
  size_t max_rows = 1000000;
  // Optional dataset statistics forwarded to the compiler for join
  // ordering and the plan generator's cost model.
  const rdf::DatasetStats* stats = nullptr;
  // Optional precompiled plan to reuse. Must have been compiled from
  // exactly this query and store; one compiled without physical plans
  // (CompileOptions::build_physical_plans = false) runs every group by
  // greedy enumeration.
  const CompiledQuery* plan = nullptr;
};

// Runs `query` against `store` and returns the projected solutions.
// Handles UNION alternatives, OPTIONAL groups (left outer join), DISTINCT,
// GROUP BY / aggregates, ORDER BY, OFFSET, and LIMIT.
Result<std::vector<Binding>> Execute(const Query& query,
                                     const rdf::TripleStore& store,
                                     const ExecuteOptions& options = {});

// Evaluates an ASK query: true iff at least one solution exists.
Result<bool> Ask(const Query& query, const rdf::TripleStore& store,
                 const ExecuteOptions& options = {});

// Projects `binding` onto the query's select list (all variables when
// SELECT *).
Binding Project(const Query& query, const Binding& binding);

// Compiles and executes `query` with physical plans and renders every
// alternative's operator tree with per-operator cost / cardinality
// estimates next to the rows each operator actually produced.
Result<std::string> Explain(const Query& query, const rdf::TripleStore& store,
                            const ExecuteOptions& options = {});

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_EXECUTOR_H_
