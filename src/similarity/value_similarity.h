// The generic, type-dispatched value similarity used to populate similarity
// matrices between entities (paper §4.1): returns a score in [0, 1] that
// depends on the literal types of the two values.
#ifndef ALEX_SIMILARITY_VALUE_SIMILARITY_H_
#define ALEX_SIMILARITY_VALUE_SIMILARITY_H_

#include "rdf/term.h"

namespace alex::sim {

// The three parameters of the generic similarity function. Everything that
// scores values or covers their scores with block keys reads these, so a
// feature space, its blocking index and a prepared right context always
// agree on them.
//
// Dates further apart than this many days score 0.
inline constexpr double kDateScaleDays = 1200.0;
// Numeric relative difference beyond this fraction scores 0 (see
// NumericSimilarity).
inline constexpr double kNumericTolerance = 0.1;
// Raw normalized-Levenshtein similarity below this floor is treated as 0
// and the range above it is rescaled to [0, 1]. Random same-alphabet
// strings have raw edit similarity around 0.2-0.4, so without this floor
// the θ = 0.3 filter (paper §6.1) would keep most of the pair space.
inline constexpr double kStringNoiseFloor = 0.4;

// Similarity between two numeric values: 1 - rel/tolerance clamped to
// [0, 1], where rel = |a-b| / max(|a|, |b|, 1).
double NumericSimilarity(double a, double b,
                         double tolerance = kNumericTolerance);

// Similarity between two dates in days-since-epoch.
double DateSimilarity(int64_t a_days, int64_t b_days, double scale_days);

// Generic similarity dispatching on the term kinds/types:
//  * two string literals           -> StringSimilarity
//  * two numeric literals          -> NumericSimilarity
//  * two date literals             -> DateSimilarity
//  * two booleans                  -> equality
//  * two IRIs                      -> 1 if equal, else StringSimilarity of
//                                     their local names
//  * mixed numeric/string          -> NumericSimilarity when both parse as
//                                     numbers, else lowercase string match
//  * anything else                 -> StringSimilarity of lexical forms
double ValueSimilarity(const rdf::Term& a, const rdf::Term& b);

// The local name of an IRI: the part after the last '#' or '/'.
std::string_view IriLocalName(std::string_view iri);

// Rescales a raw normalized-Levenshtein score above `floor` to [0, 1].
double RescaleAboveFloor(double raw, double floor);

// Calibrated string similarity: max(rescaled Levenshtein, token Jaccard)
// on lowercase inputs.
double CalibratedStringSimilarity(std::string_view a, std::string_view b,
                                  double noise_floor);

}  // namespace alex::sim

#endif  // ALEX_SIMILARITY_VALUE_SIMILARITY_H_
