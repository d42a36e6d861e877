#include "similarity/value_similarity.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "similarity/string_metrics.h"

namespace alex::sim {

using rdf::LiteralType;
using rdf::Term;
using rdf::TermKind;

double NumericSimilarity(double a, double b, double tolerance) {
  double denom = std::max({std::fabs(a), std::fabs(b), 1.0});
  double rel = std::fabs(a - b) / denom;
  if (tolerance <= 0.0) return rel == 0.0 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - rel / tolerance);
}

double DateSimilarity(int64_t a_days, int64_t b_days, double scale_days) {
  double diff = std::fabs(static_cast<double>(a_days - b_days));
  if (scale_days <= 0.0) return diff == 0.0 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - diff / scale_days);
}

std::string_view IriLocalName(std::string_view iri) {
  size_t pos = iri.find_last_of("#/");
  if (pos == std::string_view::npos || pos + 1 >= iri.size()) return iri;
  return iri.substr(pos + 1);
}

double RescaleAboveFloor(double raw, double floor) {
  if (floor <= 0.0) return raw;
  if (raw <= floor) return 0.0;
  return (raw - floor) / (1.0 - floor);
}

double CalibratedStringSimilarity(std::string_view a, std::string_view b,
                                  double noise_floor) {
  std::string la = ToLowerAscii(a);
  std::string lb = ToLowerAscii(b);
  double lev = RescaleAboveFloor(NormalizedLevenshtein(la, lb), noise_floor);
  return std::max(lev, TokenJaccard(la, lb));
}

namespace {

bool IsNumeric(const Term& t) {
  return t.is_literal() && (t.literal_type() == LiteralType::kInteger ||
                            t.literal_type() == LiteralType::kDouble);
}

}  // namespace

double ValueSimilarity(const Term& a, const Term& b) {
  // IRIs: identity, else fuzzy match on local names (links between resources
  // often differ only in namespace).
  if (a.is_iri() && b.is_iri()) {
    if (a.lexical() == b.lexical()) return 1.0;
    return CalibratedStringSimilarity(IriLocalName(a.lexical()),
                                      IriLocalName(b.lexical()),
                                      kStringNoiseFloor);
  }
  if (a.is_literal() && b.is_literal()) {
    LiteralType ta = a.literal_type();
    LiteralType tb = b.literal_type();
    if (IsNumeric(a) && IsNumeric(b)) {
      return NumericSimilarity(a.AsDouble(), b.AsDouble(), kNumericTolerance);
    }
    if (ta == LiteralType::kDate && tb == LiteralType::kDate) {
      return DateSimilarity(a.AsDateDays(), b.AsDateDays(), kDateScaleDays);
    }
    if (ta == LiteralType::kBoolean && tb == LiteralType::kBoolean) {
      return a.AsBoolean() == b.AsBoolean() ? 1.0 : 0.0;
    }
    // Mixed numeric/string: try to interpret both as numbers (e.g., a year
    // stored as a string on one side).
    double da = 0.0, db = 0.0;
    if ((IsNumeric(a) || ta == LiteralType::kString) &&
        (IsNumeric(b) || tb == LiteralType::kString) && (ta != tb)) {
      if (ParseDouble(a.lexical(), &da) && ParseDouble(b.lexical(), &db)) {
        return NumericSimilarity(da, db, kNumericTolerance);
      }
    }
    // Date vs string: exact lexical match only.
    if ((ta == LiteralType::kDate) != (tb == LiteralType::kDate)) {
      return a.lexical() == b.lexical() ? 1.0 : 0.0;
    }
    return CalibratedStringSimilarity(a.lexical(), b.lexical(),
                                      kStringNoiseFloor);
  }
  // IRI vs literal: match literal against the IRI local name.
  if (a.is_iri() && b.is_literal()) {
    return CalibratedStringSimilarity(IriLocalName(a.lexical()), b.lexical(),
                                      kStringNoiseFloor);
  }
  if (a.is_literal() && b.is_iri()) {
    return CalibratedStringSimilarity(a.lexical(), IriLocalName(b.lexical()),
                                      kStringNoiseFloor);
  }
  // Blank nodes carry no comparable value.
  return 0.0;
}

}  // namespace alex::sim
