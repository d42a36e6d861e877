#include "rdf/dataset_stats.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace alex::rdf {

const PredicateStats* DatasetStats::Find(TermId predicate) const {
  auto it = std::lower_bound(
      per_predicate.begin(), per_predicate.end(), predicate,
      [](const PredicateStats& ps, TermId id) { return ps.predicate < id; });
  if (it == per_predicate.end() || it->predicate != predicate) return nullptr;
  return &*it;
}

DatasetStats ComputeStats(const TripleStore& store) {
  DatasetStats stats;
  stats.name = store.name();
  std::vector<Triple> all =
      store.Match(std::nullopt, std::nullopt, std::nullopt);
  stats.triples = all.size();

  std::unordered_set<TermId> subjects;
  std::unordered_set<TermId> objects;
  struct PredAgg {
    size_t triples = 0;
    std::unordered_set<TermId> subjects;
    std::unordered_set<TermId> objects;
  };
  std::unordered_map<TermId, PredAgg> per_pred;
  for (const Triple& t : all) {
    subjects.insert(t.subject);
    objects.insert(t.object);
    PredAgg& agg = per_pred[t.predicate];
    ++agg.triples;
    agg.subjects.insert(t.subject);
    agg.objects.insert(t.object);
  }
  stats.subjects = subjects.size();
  stats.distinct_objects = objects.size();
  stats.predicates = per_pred.size();

  stats.per_predicate.reserve(per_pred.size());
  for (const auto& [pred, agg] : per_pred) {
    PredicateStats ps;
    ps.predicate = pred;
    ps.triple_count = agg.triples;
    ps.distinct_subjects = agg.subjects.size();
    ps.distinct_objects = agg.objects.size();
    stats.per_predicate.push_back(ps);
  }
  std::sort(stats.per_predicate.begin(), stats.per_predicate.end(),
            [](const PredicateStats& a, const PredicateStats& b) {
              return a.predicate < b.predicate;
            });
  return stats;
}

}  // namespace alex::rdf
