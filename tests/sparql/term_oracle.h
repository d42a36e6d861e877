// The term-space oracle of the SPARQL tests: an independent backtracking
// matcher over string-keyed bindings, the reference that every join path is
// checked against (the executor's planned operator trees and its greedy
// enumeration in tests/sparql, the federated evaluator in
// tests/federation, and the multi-join gate of bench_gates).
//
// It shares only the algebra with the engines under test (parsing,
// EvalFilter, FilterReady, Project, CompareBindingsForOrder) and the
// store's index scans: it resolves no plans, joins the most selective
// remaining pattern first by unbound-variable count, and aggregates,
// deduplicates and orders whole Bindings. Its semantics are the engines':
// a FILTER is evaluated as soon as its variables are bound (it prunes
// inside an OPTIONAL group, whose solution then stays unextended) and
// passes while one of them is unbound.
#ifndef ALEX_TESTS_SPARQL_TERM_ORACLE_H_
#define ALEX_TESTS_SPARQL_TERM_ORACLE_H_

#include <vector>

#include "common/status.h"
#include "rdf/dataset_stats.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"

namespace alex::sparql {

// The projected solutions of `query` over `store`, with the executor's
// default row cap (ExecuteOptions::max_rows). For an ASK query, non-empty
// iff the answer is true.
Result<std::vector<Binding>> OracleExecute(const Query& query,
                                           const rdf::TripleStore& store);

// Runs `query` on the executor's greedy baseline: compiled with `stats`
// but without physical plans and passed as ExecuteOptions::plan, so Execute
// enumerates every group pattern-at-a-time in the compiler's join order.
Result<std::vector<Binding>> ExecuteGreedy(const Query& query,
                                           const rdf::TripleStore& store,
                                           const rdf::DatasetStats* stats);

}  // namespace alex::sparql

#endif  // ALEX_TESTS_SPARQL_TERM_ORACLE_H_
