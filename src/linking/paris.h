// A C++ re-implementation of the core of PARIS (Suchanek, Abiteboul,
// Senellart, PVLDB 2011), the automatic linking algorithm the paper uses to
// produce ALEX's initial candidate links (§7.1).
//
// Model (simplified but faithful to the paper's spirit):
//   * Shared attribute values are linkage evidence. The weight of one piece
//     of evidence is the product of the *inverse functionalities* of the two
//     predicates involved — a value that nearly identifies its subject
//     (ISBN, name) is strong evidence, a value shared by many subjects
//     (rdf:type) is weak.
//   * P(x ≡ y) = 1 − Π over evidence (1 − w_i): independent noisy-or.
//   * Iteration: relation-alignment scores are estimated from the current
//     entity equalities and are used to reweight evidence; IRI-valued
//     attributes contribute evidence proportional to the equality
//     probability of the referenced entities from the previous round.
//
// PARIS relies on *exact* value equality (modulo case/whitespace
// normalization); this is what limits its recall on noisy data and leaves
// room for ALEX to discover additional links.
#ifndef ALEX_LINKING_PARIS_H_
#define ALEX_LINKING_PARIS_H_

#include <vector>

#include "linking/link.h"
#include "rdf/triple_store.h"

namespace alex::linking {

// The paper keeps PARIS links with score > 0.95 as ALEX's initial candidate
// links (§7.1): the cut for FilterByScore. RunParis itself keeps the full
// distribution above 0.05 so that it stays observable.
inline constexpr double kParisThreshold = 0.95;

// Runs PARIS between `left` and `right` and returns scored candidate links
// (both directions considered jointly; one link per entity pair), sorted by
// descending score.
std::vector<Link> RunParis(const rdf::TripleStore& left,
                           const rdf::TripleStore& right);

// Keeps only links with score > `threshold` (paper: kParisThreshold).
std::vector<Link> FilterByScore(std::vector<Link> links, double threshold);

}  // namespace alex::linking

#endif  // ALEX_LINKING_PARIS_H_
