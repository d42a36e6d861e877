#include "linking/rule_matcher.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "similarity/value_similarity.h"

namespace alex::linking {
namespace {

using rdf::Term;
using rdf::TermId;
using rdf::TripleStore;

struct PairHash {
  size_t operator()(const std::pair<TermId, TermId>& p) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(p.first) << 32) |
                                 p.second);
  }
};

// subject ids grouped by lowercase token of the values of `predicate`.
std::unordered_map<std::string, std::vector<TermId>> TokenBlocks(
    const TripleStore& store, const std::string& predicate) {
  std::unordered_map<std::string, std::vector<TermId>> blocks;
  auto pred_id = store.dictionary().Lookup(rdf::Term::Iri(predicate));
  if (!pred_id) return blocks;
  for (const rdf::Triple& t :
       store.Match(std::nullopt, *pred_id, std::nullopt)) {
    const Term& object = store.dictionary().term(t.object);
    for (const std::string& token :
         SplitWords(ToLowerAscii(object.lexical()))) {
      blocks[token].push_back(t.subject);
    }
  }
  return blocks;
}

}  // namespace

std::vector<Link> RunRuleMatcher(const TripleStore& left,
                                 const TripleStore& right,
                                 const RuleMatcherOptions& options) {
  // 1. Blocking: a candidate pair must share at least one value token under
  // at least one rule.
  std::unordered_set<std::pair<TermId, TermId>, PairHash> candidates;
  for (const MatchRule& rule : options.rules) {
    auto left_blocks = TokenBlocks(left, rule.left_predicate);
    auto right_blocks = TokenBlocks(right, rule.right_predicate);
    for (const auto& [token, left_subjects] : left_blocks) {
      auto it = right_blocks.find(token);
      if (it == right_blocks.end()) continue;
      if (left_subjects.size() > options.max_block ||
          it->second.size() > options.max_block) {
        continue;
      }
      for (TermId l : left_subjects) {
        for (TermId r : it->second) candidates.insert({l, r});
      }
    }
  }

  // 2. Score candidates with the weighted rules.
  double total_weight = 0.0;
  for (const MatchRule& rule : options.rules) total_weight += rule.weight;
  if (total_weight <= 0.0) return {};

  std::vector<Link> links;
  for (const auto& [l, r] : candidates) {
    double score = 0.0;
    for (const MatchRule& rule : options.rules) {
      auto lp = left.dictionary().Lookup(rdf::Term::Iri(rule.left_predicate));
      auto rp =
          right.dictionary().Lookup(rdf::Term::Iri(rule.right_predicate));
      if (!lp || !rp) continue;
      // Best similarity across the (usually single) value pairs.
      double best = 0.0;
      for (TermId lo : left.Objects(l, *lp)) {
        for (TermId ro : right.Objects(r, *rp)) {
          best = std::max(best,
                          sim::ValueSimilarity(left.dictionary().term(lo),
                                               right.dictionary().term(ro)));
        }
      }
      if (best >= rule.min_similarity) score += rule.weight * best;
    }
    score /= total_weight;
    if (score > options.accept_threshold) {
      Link link;
      link.left = left.dictionary().term(l).lexical();
      link.right = right.dictionary().term(r).lexical();
      link.score = score;
      links.push_back(std::move(link));
    }
  }
  std::sort(links.begin(), links.end(), [](const Link& a, const Link& b) {
    if (a.score != b.score) return a.score > b.score;
    return a < b;
  });
  return links;
}

}  // namespace alex::linking
