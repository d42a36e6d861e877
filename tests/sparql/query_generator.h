// Randomized SPARQL queries over a store's own vocabulary, for the
// differential tests of the query engines (tests/sparql) and of the
// federated evaluator (tests/federation): basic graph patterns, UNION,
// OPTIONAL, FILTER, DISTINCT, ORDER BY, LIMIT / OFFSET and GROUP BY with
// COUNT. A stream is fixed by its Rng seed.
#ifndef ALEX_TESTS_SPARQL_QUERY_GENERATOR_H_
#define ALEX_TESTS_SPARQL_QUERY_GENERATOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/world.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"

namespace alex::sparql {

// The second world the differential suites query, beside datagen's tiny
// test world: a small dbpedia_nytimes world with left- and right-only
// entities.
datagen::WorldProfile NoisyWorldProfile();

struct Vocab {
  std::vector<std::string> predicates;  // IRIs
  std::vector<std::string> subjects;    // IRIs
  std::vector<rdf::Term> objects;       // literals and IRIs
};

// Every predicate, the first 200 subjects and the first 400 objects.
Vocab CollectVocab(const rdf::TripleStore& store);

// One randomized query: the full text plus a LIMIT/OFFSET-free variant used
// as the reference superset when the cut is not totally ordered.
struct GeneratedQuery {
  std::string text;
  std::string unlimited_text;
  bool has_cut = false;        // LIMIT and/or OFFSET present
  bool is_aggregate = false;   // GROUP BY + aggregate projections
};

GeneratedQuery GenerateQuery(const Vocab& vocab, Rng* rng);

// `subset` is contained in `superset` as a multiset.
bool MultisetContained(std::vector<Binding> subset,
                       std::vector<Binding> superset);

}  // namespace alex::sparql

#endif  // ALEX_TESTS_SPARQL_QUERY_GENERATOR_H_
