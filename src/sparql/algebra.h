// Query algebra for the SPARQL subset: basic graph patterns, simple filter
// expressions, projection, DISTINCT and LIMIT.
#ifndef ALEX_SPARQL_ALGEBRA_H_
#define ALEX_SPARQL_ALGEBRA_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace alex::sparql {

// A pattern position: either a variable name or a concrete term.
struct PatternNode {
  static PatternNode Var(std::string name) {
    PatternNode n;
    n.is_variable = true;
    n.variable = std::move(name);
    return n;
  }
  static PatternNode Const(rdf::Term term) {
    PatternNode n;
    n.is_variable = false;
    n.term = std::move(term);
    return n;
  }

  bool is_variable = false;
  std::string variable;  // valid iff is_variable
  rdf::Term term;        // valid iff !is_variable

  std::string ToString() const;
};

struct TriplePattern {
  PatternNode subject;
  PatternNode predicate;
  PatternNode object;

  // Number of variable positions given the set of already-bound variables;
  // used for join ordering (most selective first).
  int UnboundCount(const std::map<std::string, rdf::Term>& bound) const;

  std::string ToString() const;
};

// Filter expression tree.
enum class FilterOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kContains,  // CONTAINS(lhs, rhs) substring test, case-insensitive
};

struct FilterExpr {
  FilterOp op = FilterOp::kEq;
  // Comparison/contains leaves use lhs_node/rhs_node; logical nodes use
  // children (kNot uses only children[0]).
  std::optional<PatternNode> lhs_node;
  std::optional<PatternNode> rhs_node;
  std::vector<std::unique_ptr<FilterExpr>> children;
};

// Ordering key for ORDER BY.
struct OrderKey {
  std::string variable;
  bool descending = false;
};

// Aggregate projection, e.g. `(COUNT(?x) AS ?n)`.
struct Aggregate {
  enum class Kind { kCount, kSum, kAvg, kMin, kMax };
  Kind kind = Kind::kCount;
  // Aggregated variable; empty means `*` (COUNT only).
  std::string variable;
  // Output variable name (the `AS ?name` part).
  std::string as;
};

// Printable name ("COUNT", ...).
const char* AggregateKindName(Aggregate::Kind kind);

// A SELECT or ASK query.
//
// UNION is normalized at parse time into `alternatives`: disjunctive
// normal form, one pattern list per branch combination. `patterns` is
// always alternative 0 (the only one for union-free queries) so simple
// callers can ignore unions entirely.
struct Query {
  bool is_ask = false;               // ASK WHERE { ... }
  bool distinct = false;
  bool select_all = false;           // SELECT *
  std::vector<std::string> select;   // projected variable names
  // Aggregate projections; when non-empty the query is an aggregation and
  // `select` holds the GROUP BY keys that are also projected.
  std::vector<Aggregate> aggregates;
  std::vector<std::string> group_by;
  std::vector<TriplePattern> patterns;
  // Additional UNION branches beyond `patterns` (usually empty).
  std::vector<std::vector<TriplePattern>> more_alternatives;
  // OPTIONAL groups: left-outer-joined after the required patterns match.
  std::vector<std::vector<TriplePattern>> optionals;
  std::vector<std::unique_ptr<FilterExpr>> filters;
  std::vector<OrderKey> order_by;
  std::optional<size_t> limit;
  size_t offset = 0;

  // All pattern alternatives including `patterns` itself.
  std::vector<const std::vector<TriplePattern>*> Alternatives() const;

  std::string ToString() const;
};

// A solution: variable name -> bound term.
using Binding = std::map<std::string, rdf::Term>;

// Evaluates `expr` under `binding`. Unbound variables make comparisons
// false. Numeric comparisons are used when both sides parse as numbers.
bool EvalFilter(const FilterExpr& expr, const Binding& binding);

// True when every variable in `expr` is bound. The query engines evaluate
// a FILTER only once it is ready, so a filter over a variable that a
// solution leaves unbound (an unmatched OPTIONAL) does not reject it.
bool FilterReady(const FilterExpr& expr, const Binding& binding);

// Three-way comparison of two solutions under ORDER BY `keys`: numeric when
// both values parse as numbers, lexical otherwise; unbound sorts first.
int CompareBindingsForOrder(const Binding& a, const Binding& b,
                            const std::vector<OrderKey>& keys);

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_ALGEBRA_H_
