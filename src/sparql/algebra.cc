#include "sparql/algebra.h"

#include <algorithm>

#include "common/strings.h"

namespace alex::sparql {

std::string PatternNode::ToString() const {
  if (is_variable) return "?" + variable;
  return term.ToString();
}

int TriplePattern::UnboundCount(
    const std::map<std::string, rdf::Term>& bound) const {
  int count = 0;
  for (const PatternNode* node : {&subject, &predicate, &object}) {
    if (node->is_variable && bound.find(node->variable) == bound.end()) {
      ++count;
    }
  }
  return count;
}

std::string TriplePattern::ToString() const {
  return subject.ToString() + " " + predicate.ToString() + " " +
         object.ToString() + " .";
}

const char* AggregateKindName(Aggregate::Kind kind) {
  switch (kind) {
    case Aggregate::Kind::kCount:
      return "COUNT";
    case Aggregate::Kind::kSum:
      return "SUM";
    case Aggregate::Kind::kAvg:
      return "AVG";
    case Aggregate::Kind::kMin:
      return "MIN";
    case Aggregate::Kind::kMax:
      return "MAX";
  }
  return "?";
}

std::vector<const std::vector<TriplePattern>*> Query::Alternatives() const {
  std::vector<const std::vector<TriplePattern>*> out;
  out.push_back(&patterns);
  for (const std::vector<TriplePattern>& alt : more_alternatives) {
    out.push_back(&alt);
  }
  return out;
}

std::string Query::ToString() const {
  if (is_ask) {
    std::string out = "ASK WHERE { ";
    for (const TriplePattern& p : patterns) out += p.ToString() + " ";
    out += "}";
    return out;
  }
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  if (select_all) {
    out += "*";
  } else {
    bool first = true;
    for (const std::string& var : select) {
      if (!first) out += " ";
      first = false;
      out += "?" + var;
    }
    for (const Aggregate& agg : aggregates) {
      if (!first) out += " ";
      first = false;
      out += "(" + std::string(AggregateKindName(agg.kind)) + "(" +
             (agg.variable.empty() ? "*" : "?" + agg.variable) + ") AS ?" +
             agg.as + ")";
    }
  }
  out += " WHERE { ";
  for (const TriplePattern& p : patterns) out += p.ToString() + " ";
  for (const std::vector<TriplePattern>& group : optionals) {
    out += "OPTIONAL { ";
    for (const TriplePattern& p : group) out += p.ToString() + " ";
    out += "} ";
  }
  out += "}";
  if (!group_by.empty()) {
    out += " GROUP BY";
    for (const std::string& var : group_by) out += " ?" + var;
  }
  if (!order_by.empty()) {
    out += " ORDER BY";
    for (const OrderKey& key : order_by) {
      out += key.descending ? " DESC(?" + key.variable + ")"
                            : " ?" + key.variable;
    }
  }
  if (limit) out += " LIMIT " + std::to_string(*limit);
  if (offset > 0) out += " OFFSET " + std::to_string(offset);
  return out;
}

namespace {

// Resolves a leaf to a term under `binding`; returns nullptr if it is an
// unbound variable.
const rdf::Term* Resolve(const PatternNode& node, const Binding& binding,
                         rdf::Term* storage) {
  if (!node.is_variable) {
    *storage = node.term;
    return storage;
  }
  auto it = binding.find(node.variable);
  if (it == binding.end()) return nullptr;
  return &it->second;
}

// Three-way comparison of two terms, numeric when both parse as numbers,
// lexical otherwise.
int CompareTerms(const rdf::Term& a, const rdf::Term& b) {
  double da = 0.0, db = 0.0;
  if (ParseDouble(a.lexical(), &da) && ParseDouble(b.lexical(), &db)) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  if (a.lexical() < b.lexical()) return -1;
  if (a.lexical() > b.lexical()) return 1;
  return 0;
}

}  // namespace

bool EvalFilter(const FilterExpr& expr, const Binding& binding) {
  switch (expr.op) {
    case FilterOp::kAnd:
      for (const auto& child : expr.children) {
        if (!EvalFilter(*child, binding)) return false;
      }
      return true;
    case FilterOp::kOr:
      for (const auto& child : expr.children) {
        if (EvalFilter(*child, binding)) return true;
      }
      return false;
    case FilterOp::kNot:
      return !expr.children.empty() &&
             !EvalFilter(*expr.children[0], binding);
    default:
      break;
  }
  rdf::Term lhs_storage, rhs_storage;
  const rdf::Term* lhs =
      expr.lhs_node ? Resolve(*expr.lhs_node, binding, &lhs_storage)
                    : nullptr;
  const rdf::Term* rhs =
      expr.rhs_node ? Resolve(*expr.rhs_node, binding, &rhs_storage)
                    : nullptr;
  if (lhs == nullptr || rhs == nullptr) return false;
  if (expr.op == FilterOp::kContains) {
    std::string hay = ToLowerAscii(lhs->lexical());
    std::string needle = ToLowerAscii(rhs->lexical());
    return hay.find(needle) != std::string::npos;
  }
  // Term equality for ==/!= compares whole terms when kinds match; numeric
  // comparison otherwise.
  int cmp = CompareTerms(*lhs, *rhs);
  switch (expr.op) {
    case FilterOp::kEq:
      return cmp == 0;
    case FilterOp::kNe:
      return cmp != 0;
    case FilterOp::kLt:
      return cmp < 0;
    case FilterOp::kLe:
      return cmp <= 0;
    case FilterOp::kGt:
      return cmp > 0;
    case FilterOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

bool FilterReady(const FilterExpr& expr, const Binding& binding) {
  for (const auto& child : expr.children) {
    if (!FilterReady(*child, binding)) return false;
  }
  for (const std::optional<PatternNode>* node :
       {&expr.lhs_node, &expr.rhs_node}) {
    if (node->has_value() && (*node)->is_variable &&
        binding.find((*node)->variable) == binding.end()) {
      return false;
    }
  }
  return true;
}

int CompareBindingsForOrder(const Binding& a, const Binding& b,
                            const std::vector<OrderKey>& keys) {
  for (const OrderKey& key : keys) {
    auto ia = a.find(key.variable);
    auto ib = b.find(key.variable);
    bool ha = ia != a.end();
    bool hb = ib != b.end();
    int cmp = 0;
    if (ha != hb) {
      cmp = ha ? 1 : -1;  // unbound first
    } else if (ha && hb) {
      double da = 0.0, db = 0.0;
      if (ParseDouble(ia->second.lexical(), &da) &&
          ParseDouble(ib->second.lexical(), &db)) {
        cmp = da < db ? -1 : (da > db ? 1 : 0);
      } else {
        int c = ia->second.lexical().compare(ib->second.lexical());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
    if (key.descending) cmp = -cmp;
    if (cmp != 0) return cmp;
  }
  return 0;
}

}  // namespace alex::sparql
