#include "linking/paris.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "rdf/dataset_stats.h"

namespace alex::linking {
namespace {

using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using rdf::TripleStore;

// Normalized key under which two literal values count as "the same" for
// PARIS evidence: lowercase, whitespace-collapsed lexical form prefixed by
// a coarse type tag (numbers compare by canonical numeric form).
std::string ValueKey(const Term& term) {
  if (term.is_literal()) {
    switch (term.literal_type()) {
      case rdf::LiteralType::kInteger:
      case rdf::LiteralType::kDouble: {
        double value = term.AsDouble();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "n:%.12g", value);
        return buf;
      }
      case rdf::LiteralType::kDate:
        return "d:" + term.lexical();
      case rdf::LiteralType::kBoolean:
        return "b:" + term.lexical();
      case rdf::LiteralType::kString:
        break;
    }
    std::string out = "s:";
    out += alex::Join(alex::SplitWords(alex::ToLowerAscii(term.lexical())),
                      " ");
    return out;
  }
  return "";  // IRIs and blanks are handled through entity equality.
}

// Number of equality-propagation rounds.
constexpr int kIterations = 3;
// Links with final probability below this are dropped from the output
// (the caller applies the paper's > kParisThreshold cut).
constexpr double kMinScore = 0.05;
// Values shared by more than this many subjects within one data set are
// ignored as evidence (stop-value pruning, as in PARIS' implementation).
constexpr size_t kMaxValueGroup = 50;

struct PairHash {
  size_t operator()(const std::pair<TermId, TermId>& p) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(p.first) << 32) |
                                 p.second);
  }
};

struct SubjectPred {
  TermId subject;
  TermId predicate;
};

// Per-store inverted index from value keys to the (subject, predicate)
// occurrences of that value.
std::unordered_map<std::string, std::vector<SubjectPred>> BuildValueIndex(
    const TripleStore& store) {
  std::unordered_map<std::string, std::vector<SubjectPred>> index;
  for (const Triple& t :
       store.Match(std::nullopt, std::nullopt, std::nullopt)) {
    const Term& object = store.dictionary().term(t.object);
    std::string key = ValueKey(object);
    if (key.empty()) continue;
    index[key].push_back(SubjectPred{t.subject, t.predicate});
  }
  return index;
}

double InverseFunctionality(const rdf::DatasetStats& stats, TermId predicate) {
  const rdf::PredicateStats* ps = stats.Find(predicate);
  if (ps == nullptr) return 0.0;
  return std::max(0.0, std::min(1.0, ps->InverseFunctionality()));
}

}  // namespace

std::vector<Link> FilterByScore(std::vector<Link> links, double threshold) {
  links.erase(std::remove_if(links.begin(), links.end(),
                             [threshold](const Link& link) {
                               return link.score <= threshold;
                             }),
              links.end());
  return links;
}

std::vector<Link> RunParis(const TripleStore& left, const TripleStore& right) {
  const rdf::DatasetStats left_stats = rdf::ComputeStats(left);
  const rdf::DatasetStats right_stats = rdf::ComputeStats(right);
  auto left_index = BuildValueIndex(left);
  auto right_index = BuildValueIndex(right);

  using Pair = std::pair<TermId, TermId>;
  // P(x ≡ y) for candidate pairs, updated every round.
  std::unordered_map<Pair, double, PairHash> equality;
  // Relation alignment weight for predicate pairs, in [0, 1].
  std::unordered_map<Pair, double, PairHash> relation_weight;

  // Pre-collect IRI-valued triples once for the recursive-evidence pass.
  std::vector<Triple> left_iri_triples;
  for (const Triple& t :
       left.Match(std::nullopt, std::nullopt, std::nullopt)) {
    if (left.dictionary().term(t.object).is_iri()) {
      left_iri_triples.push_back(t);
    }
  }
  // Index right IRI triples by (predicate not needed) object -> (subj, pred).
  std::unordered_map<TermId, std::vector<SubjectPred>> right_by_iri_object;
  for (const Triple& t :
       right.Match(std::nullopt, std::nullopt, std::nullopt)) {
    if (right.dictionary().term(t.object).is_iri()) {
      right_by_iri_object[t.object].push_back(
          SubjectPred{t.subject, t.predicate});
    }
  }
  // Map right IRIs by lexical form for cross-store object resolution.
  // (Objects of the two stores live in different dictionaries.)
  std::unordered_map<std::string, TermId> right_iri_by_lexical;
  for (const auto& [obj, _] : right_by_iri_object) {
    right_iri_by_lexical[right.dictionary().term(obj).lexical()] = obj;
  }

  for (int round = 0; round < kIterations; ++round) {
    std::unordered_map<Pair, double, PairHash> log_not_equal;

    auto add_evidence = [&](TermId x, TermId y, double weight) {
      if (weight <= 0.0) return;
      weight = std::min(weight, 0.999999);
      log_not_equal[{x, y}] += std::log1p(-weight);
    };

    // 1. Literal-value evidence.
    for (const auto& [key, left_occurrences] : left_index) {
      auto it = right_index.find(key);
      if (it == right_index.end()) continue;
      const auto& right_occurrences = it->second;
      if (left_occurrences.size() > kMaxValueGroup ||
          right_occurrences.size() > kMaxValueGroup) {
        continue;  // stop-value: too common to be informative
      }
      for (const SubjectPred& l : left_occurrences) {
        double inv_l = InverseFunctionality(left_stats, l.predicate);
        for (const SubjectPred& r : right_occurrences) {
          double inv_r = InverseFunctionality(right_stats, r.predicate);
          double weight = inv_l * inv_r;
          if (round > 0) {
            auto rel = relation_weight.find({l.predicate, r.predicate});
            double rw = rel == relation_weight.end() ? 0.2 : rel->second;
            weight *= 0.5 + 0.5 * rw;  // never fully mute direct evidence
          }
          add_evidence(l.subject, r.subject, weight);
        }
      }
    }

    // 2. Recursive evidence through IRI-valued attributes: if x --r1--> o1,
    // y --r2--> o2 and P(o1 ≡ o2) from the previous round is high, that
    // supports x ≡ y. Same-lexical IRIs count as equal with probability 1.
    if (round > 0 || !equality.empty()) {
      for (const Triple& lt : left_iri_triples) {
        const std::string& obj_lex =
            left.dictionary().term(lt.object).lexical();
        // Counterparts: identical IRI in the right store...
        auto same = right_iri_by_lexical.find(obj_lex);
        double inv_l = InverseFunctionality(left_stats, lt.predicate);
        if (same != right_iri_by_lexical.end()) {
          for (const SubjectPred& r : right_by_iri_object[same->second]) {
            double inv_r = InverseFunctionality(right_stats, r.predicate);
            add_evidence(lt.subject, r.subject, inv_l * inv_r);
          }
        }
        // ...and right entities currently believed equal to the object.
        // (Scan limited to pairs involving lt.object as the left member.)
        // For efficiency this uses the equality map directly below.
      }
      for (const auto& [pair, prob] : equality) {
        if (prob < 0.5) continue;
        // pair = (left object candidate, right object candidate): propagate
        // to subjects referencing them.
        auto rit = right_by_iri_object.find(pair.second);
        if (rit == right_by_iri_object.end()) continue;
        for (const Triple& lt : left.Match(std::nullopt, std::nullopt,
                                           pair.first)) {
          double inv_l = InverseFunctionality(left_stats, lt.predicate);
          for (const SubjectPred& r : rit->second) {
            double inv_r = InverseFunctionality(right_stats, r.predicate);
            add_evidence(lt.subject, r.subject, prob * inv_l * inv_r);
          }
        }
      }
    }

    // Fold evidence into equality probabilities.
    equality.clear();
    for (const auto& [pair, log_ne] : log_not_equal) {
      equality[pair] = 1.0 - std::exp(log_ne);
    }

    // 3. Relation alignment: how often do r1 (left) and r2 (right) connect
    // equal value/entities among strongly-matched pairs?
    relation_weight.clear();
    std::unordered_map<TermId, double> left_pred_support;
    for (const auto& [key, left_occurrences] : left_index) {
      auto it = right_index.find(key);
      if (it == right_index.end()) continue;
      if (left_occurrences.size() > kMaxValueGroup ||
          it->second.size() > kMaxValueGroup) {
        continue;
      }
      for (const SubjectPred& l : left_occurrences) {
        for (const SubjectPred& r : it->second) {
          auto eq = equality.find({l.subject, r.subject});
          if (eq == equality.end() || eq->second < 0.5) continue;
          relation_weight[{l.predicate, r.predicate}] += eq->second;
          left_pred_support[l.predicate] += eq->second;
        }
      }
    }
    for (auto& [pair, weight] : relation_weight) {
      double denom = left_pred_support[pair.first];
      if (denom > 0.0) weight /= denom;
    }
  }

  // Mutual-best pruning: keep (x, y) only if y is x's best match and x is
  // y's best match (PARIS' final alignment is functional in both
  // directions for sameAs links).
  std::unordered_map<TermId, std::pair<TermId, double>> best_left;
  std::unordered_map<TermId, std::pair<TermId, double>> best_right;
  for (const auto& [pair, prob] : equality) {
    auto bl = best_left.find(pair.first);
    if (bl == best_left.end() || prob > bl->second.second) {
      best_left[pair.first] = {pair.second, prob};
    }
    auto br = best_right.find(pair.second);
    if (br == best_right.end() || prob > br->second.second) {
      best_right[pair.second] = {pair.first, prob};
    }
  }

  std::vector<Link> links;
  for (const auto& [pair, prob] : equality) {
    if (prob < kMinScore) continue;
    const auto& bl = best_left[pair.first];
    const auto& br = best_right[pair.second];
    if (bl.first != pair.second || br.first != pair.first) continue;
    Link link;
    link.left = left.dictionary().term(pair.first).lexical();
    link.right = right.dictionary().term(pair.second).lexical();
    link.score = prob;
    links.push_back(std::move(link));
  }
  std::sort(links.begin(), links.end(), [](const Link& a, const Link& b) {
    if (a.score != b.score) return a.score > b.score;
    return a < b;
  });
  return links;
}

}  // namespace alex::linking
