#include "sparql/query_generator.h"

#include <algorithm>

#include "datagen/profiles.h"

namespace alex::sparql {
namespace {

std::string QuoteLiteral(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

std::string TermText(const rdf::Term& term) {
  return term.is_iri() ? "<" + term.lexical() + ">"
                       : QuoteLiteral(term.lexical());
}

}  // namespace

datagen::WorldProfile NoisyWorldProfile() {
  datagen::WorldProfile profile = datagen::DbpediaNytimesProfile();
  profile.overlap_entities = 80;
  profile.left_only_entities = 40;
  profile.right_only_entities = 30;
  return profile;
}

Vocab CollectVocab(const rdf::TripleStore& store) {
  Vocab vocab;
  const rdf::Dictionary& dict = store.dictionary();
  for (rdf::TermId p : store.Predicates()) {
    vocab.predicates.push_back(dict.term(p).lexical());
  }
  for (rdf::TermId s : store.Subjects()) {
    vocab.subjects.push_back(dict.term(s).lexical());
    if (vocab.subjects.size() >= 200) break;
  }
  for (const rdf::Triple& t :
       store.Match(std::nullopt, std::nullopt, std::nullopt)) {
    vocab.objects.push_back(dict.term(t.object));
    if (vocab.objects.size() >= 400) break;
  }
  return vocab;
}

GeneratedQuery GenerateQuery(const Vocab& vocab, Rng* rng) {
  const std::vector<std::string> vars = {"?a", "?b", "?c", "?d"};
  auto var = [&] { return vars[rng->NextBounded(vars.size())]; };
  auto predicate = [&] {
    return "<" + vocab.predicates[rng->NextBounded(vocab.predicates.size())] +
           ">";
  };
  auto node = [&]() -> std::string {
    switch (rng->NextBounded(4)) {
      case 0:
        return "<" + vocab.subjects[rng->NextBounded(vocab.subjects.size())] +
               ">";
      case 1:
        return TermText(vocab.objects[rng->NextBounded(vocab.objects.size())]);
      default:
        return var();
    }
  };
  auto pattern = [&] {
    // Subjects lean toward variables so patterns join; predicates are
    // occasionally variables to exercise POS-less scans.
    std::string s = rng->NextBounded(4) == 0 ? node() : var();
    std::string p = rng->NextBounded(8) == 0 ? var() : predicate();
    return s + " " + p + " " + node();
  };
  auto group = [&](size_t max_patterns) {
    std::string out = pattern();
    for (size_t i = rng->NextBounded(max_patterns); i > 0; --i) {
      out += " . " + pattern();
    }
    return out;
  };

  std::string where = "{ " + group(2) + " }";
  if (rng->NextBounded(4) == 0) {
    where = "{ " + where + " UNION { " + group(2) + " } }";
  }
  std::string body = where.substr(1, where.size() - 2);
  if (rng->NextBounded(3) == 0) {
    body += " OPTIONAL { " + group(1) + " }";
  }
  if (rng->NextBounded(3) == 0) {
    const std::string v = var();
    switch (rng->NextBounded(3)) {
      case 0:
        body += " FILTER(" + v + " != " +
                TermText(vocab.objects[rng->NextBounded(
                    vocab.objects.size())]) +
                ")";
        break;
      case 1:
        body += " FILTER(CONTAINS(" + v + ", \"a\"))";
        break;
      default:
        body += " FILTER(" + v + " = " + var() + ")";
    }
  }

  GeneratedQuery out;
  if (rng->NextBounded(5) == 0) {
    // Aggregation: GROUP BY one variable, COUNT another (COUNT is
    // enumeration-order-invariant; MIN/MAX tie-breaking is covered by the
    // deterministic literal test below).
    std::string key = var();
    std::string counted = var();
    std::string head = "SELECT " + key + " (COUNT(" + counted + ") AS ?n)";
    if (rng->NextBounded(2) == 0) head += " (COUNT(*) AS ?rows)";
    out.unlimited_text =
        head + " WHERE { " + body + " } GROUP BY " + key;
    out.text = out.unlimited_text;
    out.is_aggregate = true;
    return out;
  }

  std::string select = rng->NextBounded(4) == 0 ? "*" : var() + " " + var();
  std::string head = "SELECT ";
  if (rng->NextBounded(4) == 0) head += "DISTINCT ";
  out.unlimited_text = head + select + " WHERE { " + body + " }";
  out.text = out.unlimited_text;
  if (rng->NextBounded(3) == 0) {
    out.text += " ORDER BY " + var();
  }
  if (rng->NextBounded(3) == 0) {
    out.text += " LIMIT " + std::to_string(1 + rng->NextBounded(5));
    out.has_cut = true;
  }
  if (rng->NextBounded(6) == 0) {
    out.text += " OFFSET " + std::to_string(rng->NextBounded(3));
    out.has_cut = true;
  }
  return out;
}

bool MultisetContained(std::vector<Binding> subset,
                       std::vector<Binding> superset) {
  std::sort(subset.begin(), subset.end());
  std::sort(superset.begin(), superset.end());
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

}  // namespace alex::sparql
