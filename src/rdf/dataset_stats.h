// Data set statistics (Table 1 in the paper) and per-predicate counts used
// by the PARIS baseline (relation functionalities).
#ifndef ALEX_RDF_DATASET_STATS_H_
#define ALEX_RDF_DATASET_STATS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/triple_store.h"

namespace alex::rdf {

struct PredicateStats {
  TermId predicate = kInvalidTermId;
  size_t triple_count = 0;
  size_t distinct_subjects = 0;
  size_t distinct_objects = 0;

  // PARIS functionality: how close the predicate is to being a function of
  // its subject: distinct_subjects / triple_count. 1.0 means every subject
  // has exactly one value for this predicate.
  double Functionality() const {
    return triple_count == 0
               ? 0.0
               : static_cast<double>(distinct_subjects) / triple_count;
  }
  // Inverse functionality: distinct_objects / triple_count. High values mean
  // the object almost identifies the subject (good linkage evidence).
  double InverseFunctionality() const {
    return triple_count == 0
               ? 0.0
               : static_cast<double>(distinct_objects) / triple_count;
  }
};

struct DatasetStats {
  std::string name;
  size_t triples = 0;
  size_t subjects = 0;
  size_t predicates = 0;
  size_t distinct_objects = 0;
  std::vector<PredicateStats> per_predicate;

  // Lookup by predicate id; returns nullptr if unknown.
  const PredicateStats* Find(TermId predicate) const;
};

// Computes statistics in one pass over the store.
DatasetStats ComputeStats(const TripleStore& store);

}  // namespace alex::rdf

#endif  // ALEX_RDF_DATASET_STATS_H_
