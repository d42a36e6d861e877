#include "core/feature_set.h"

#include <algorithm>

#include "common/strings.h"
#include "similarity/string_metrics.h"
#include "similarity/value_similarity.h"

namespace alex::core {

FeatureId FeatureCatalog::Intern(FeatureKeyView key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  FeatureId id = static_cast<FeatureId>(keys_.size());
  FeatureKey owned{std::string(key.left_predicate),
                   std::string(key.right_predicate)};
  keys_.push_back(owned);
  index_.emplace(std::move(owned), id);
  return id;
}

FeatureKey FeatureCatalog::Key(FeatureId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_[id];
}

size_t FeatureCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

std::vector<FeatureId> FeatureCatalog::Canonicalize() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FeatureId> order(keys_.size());
  for (FeatureId id = 0; id < order.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [this](FeatureId a, FeatureId b) {
    if (keys_[a].left_predicate != keys_[b].left_predicate) {
      return keys_[a].left_predicate < keys_[b].left_predicate;
    }
    return keys_[a].right_predicate < keys_[b].right_predicate;
  });
  std::vector<FeatureId> old_to_new(keys_.size());
  std::vector<FeatureKey> sorted(keys_.size());
  for (FeatureId new_id = 0; new_id < order.size(); ++new_id) {
    old_to_new[order[new_id]] = new_id;
    sorted[new_id] = std::move(keys_[order[new_id]]);
  }
  keys_ = std::move(sorted);
  for (auto& [key, id] : index_) id = old_to_new[id];
  return old_to_new;
}

FeatureId CatalogMemo::Intern(FeatureKeyView key) {
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  FeatureId id = catalog_->Intern(key);
  cache_.emplace(FeatureKey{std::string(key.left_predicate),
                            std::string(key.right_predicate)},
                 id);
  return id;
}

void FeatureSet::SetMax(FeatureId id, double score) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  const size_t at = static_cast<size_t>(it - ids.begin());
  if (it != ids.end() && *it == id) {
    scores[at] = std::max(scores[at], score);
    return;
  }
  ids.insert(it, id);
  scores.insert(scores.begin() + at, score);
}

PreparedValue PrepareValue(const rdf::Term& term) {
  PreparedValue v;
  if (term.is_iri()) {
    v.is_iri = true;
    v.lowered = ToLowerAscii(sim::IriLocalName(term.lexical()));
  } else if (term.is_literal()) {
    v.type = term.literal_type();
    v.lowered = ToLowerAscii(term.lexical());
    switch (v.type) {
      case rdf::LiteralType::kInteger:
      case rdf::LiteralType::kDouble:
        v.numeric = term.AsDouble();
        v.has_numeric = true;
        break;
      case rdf::LiteralType::kDate:
        v.date_days = term.AsDateDays();
        break;
      case rdf::LiteralType::kString: {
        double parsed = 0.0;
        if (ParseDouble(v.lowered, &parsed)) {
          v.numeric = parsed;
          v.has_numeric = true;
        }
        break;
      }
      case rdf::LiteralType::kBoolean:
        break;
    }
  } else {
    v.lowered = ToLowerAscii(term.lexical());
  }
  v.tokens = SplitWordsNormalized(v.lowered);
  std::sort(v.tokens.begin(), v.tokens.end());
  v.tokens.erase(std::unique(v.tokens.begin(), v.tokens.end()),
                 v.tokens.end());
  return v;
}

PreparedEntity PrepareEntity(const rdf::TripleStore& store,
                             rdf::TermId subject, size_t max_attributes) {
  PreparedEntity entity;
  entity.subject = subject;
  entity.iri = store.dictionary().term(subject).lexical();
  rdf::Entity raw = rdf::GetEntity(store, subject);
  for (const rdf::Attribute& attr : raw.attributes) {
    if (max_attributes > 0 && entity.attributes.size() >= max_attributes) {
      break;
    }
    PreparedAttribute prepared;
    prepared.predicate = store.dictionary().term(attr.predicate).lexical();
    prepared.value = PrepareValue(store.dictionary().term(attr.object));
    entity.attributes.push_back(std::move(prepared));
  }
  return entity;
}

// Sorted-unique-token Jaccard via merge walk.
double SortedTokenJaccard(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

// Levenshtein distance of two non-empty strings by the bit-parallel
// algorithm of Myers (JACM 1999), in Hyyrö's global-distance form with the
// pattern split into 64-bit words (Hyyrö 2003). The shorter string is the
// pattern. For one text column j, bit i of a word holds the vertical delta
// D[i+1][j] - D[i][j] of one pattern row as a +1 (pv) or -1 (mv) flag, and a
// constant number of word operations advances it by one column: O(n) per
// word instead of the O(64 n) cells of a dynamic program. Words sweep the
// text one after another, each with its state in registers, and hand the
// horizontal delta of their last row to the next word through `carry`; the
// first word's input is +1 because D[0][j] = j, and the last word's output
// steps D[m][j].
size_t BitParallelLevenshtein(const std::string& a, const std::string& b) {
  const std::string& pattern = a.size() <= b.size() ? a : b;
  const std::string& text = a.size() <= b.size() ? b : a;
  const size_t m = pattern.size();
  const size_t n = text.size();
  const size_t words = (m + 63) / 64;
  // Match masks: peq[c * words + w] bit i is set iff pattern[64w + i] == c.
  // Every entry is zero between calls: the last loop of each call clears
  // the entries its pattern set.
  static thread_local std::vector<uint64_t> peq;
  // Per text column, the delta leaving the previous word: bit 0 set for +1,
  // bit 1 for -1.
  static thread_local std::vector<uint8_t> carry;
  if (peq.size() < 256 * words) peq.resize(256 * words, 0);
  if (carry.size() < n) carry.resize(n);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * words + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  size_t dist = m;  // D[m][0]
  for (size_t w = 0; w < words; ++w) {
    const bool first_word = w == 0;
    const bool last_word = w + 1 == words;
    const unsigned out_bit = last_word ? (m - 1) % 64 : 63;
    const uint64_t* eq_of = peq.data() + w;
    uint64_t pv = ~uint64_t{0};  // D[i][0] = i: every vertical delta is +1
    uint64_t mv = 0;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t in = first_word ? 1 : carry[j];
      const uint64_t ph_in = in & 1;
      const uint64_t mh_in = in >> 1;
      const uint64_t eq = eq_of[static_cast<unsigned char>(text[j]) * words];
      const uint64_t xv = eq | mv;
      const uint64_t xh = ((((eq | mh_in) & pv) + pv) ^ pv) | eq | mh_in;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      const uint64_t ph_out = (ph >> out_bit) & 1;
      const uint64_t mh_out = (mh >> out_bit) & 1;
      if (last_word) {
        dist += ph_out;
        dist -= mh_out;
      } else {
        carry[j] = static_cast<uint8_t>(ph_out | (mh_out << 1));
      }
      ph = (ph << 1) | ph_in;
      mh = (mh << 1) | mh_in;
      pv = mh | ~(xv | ph);
      mv = ph & xv;
    }
  }
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * words + i / 64] = 0;
  }
  return dist;
}

}  // namespace

// Normalized Levenshtein on pre-lowered strings. Exact above
// min_interesting; returns a value below it when the length difference alone
// rules the pair out.
double FastNormalizedLevenshtein(const std::string& a, const std::string& b,
                                 double min_interesting) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const size_t longest = std::max(n, m);
  // Bit-identical to sim::NormalizedLevenshtein: 1 - dist / longest (a
  // reciprocal-multiply differs in the last ulp, which the blocked ==
  // exhaustive score-equality tests would notice).
  auto to_similarity = [longest](size_t dist) {
    return 1.0 -
           static_cast<double>(dist) / static_cast<double>(longest);
  };
  // Cheap lower bound: the length difference alone is already that many
  // edits, so when its similarity misses min_interesting so does the true
  // one, and the bound itself is a value below the cutoff.
  const double length_bound = to_similarity(n > m ? n - m : m - n);
  if (length_bound < min_interesting) return length_bound;
  return to_similarity(BitParallelLevenshtein(a, b));
}

namespace {

bool IsDate(const PreparedValue& v) {
  return !v.is_iri && v.type == rdf::LiteralType::kDate;
}
bool IsBoolean(const PreparedValue& v) {
  return !v.is_iri && v.type == rdf::LiteralType::kBoolean;
}
bool IsTypedNumeric(const PreparedValue& v) {
  return !v.is_iri && (v.type == rdf::LiteralType::kInteger ||
                       v.type == rdf::LiteralType::kDouble);
}

}  // namespace

double PreparedSimilarity(const PreparedValue& a, const PreparedValue& b,
                          double min_interesting,
                          const SimilarityChannelMask& mask) {
  auto calibrated_string = [min_interesting, &mask](const PreparedValue& x,
                                                    const PreparedValue& y) {
    // Token Jaccard is cheap; compute it first so the Levenshtein pass can
    // skip a pair whose lengths alone cannot beat max(jaccard,
    // min_interesting).
    double jaccard =
        mask.jaccard ? SortedTokenJaccard(x.tokens, y.tokens) : 0.0;
    if (!mask.levenshtein) return jaccard;
    constexpr double floor = sim::kStringNoiseFloor;
    const double raw_cutoff =
        floor + std::max(jaccard, min_interesting) * (1.0 - floor);
    double lev = sim::RescaleAboveFloor(
        FastNormalizedLevenshtein(x.lowered, y.lowered, raw_cutoff), floor);
    return std::max(lev, jaccard);
  };
  if (a.is_iri && b.is_iri) {
    if (mask.equality && a.lowered == b.lowered) return 1.0;
    return calibrated_string(a, b);
  }
  if (!a.is_iri && !b.is_iri) {
    if (IsTypedNumeric(a) && IsTypedNumeric(b)) {
      if (!mask.numeric) return 0.0;
      return sim::NumericSimilarity(a.numeric, b.numeric,
                                    sim::kNumericTolerance);
    }
    if (IsDate(a) && IsDate(b)) {
      if (!mask.dates) return 0.0;
      return sim::DateSimilarity(a.date_days, b.date_days,
                                 sim::kDateScaleDays);
    }
    if (IsBoolean(a) && IsBoolean(b)) {
      if (!mask.equality) return 0.0;
      return a.lowered == b.lowered ? 1.0 : 0.0;
    }
    // Mixed numeric/string where both parse as numbers.
    if (a.has_numeric && b.has_numeric &&
        (IsTypedNumeric(a) != IsTypedNumeric(b))) {
      if (!mask.numeric) return 0.0;
      return sim::NumericSimilarity(a.numeric, b.numeric,
                                    sim::kNumericTolerance);
    }
    if (IsDate(a) != IsDate(b)) {
      if (!mask.equality) return 0.0;
      return a.lowered == b.lowered ? 1.0 : 0.0;
    }
  }
  // Everything else: fuzzy string comparison of the lowered forms.
  return calibrated_string(a, b);
}

}  // namespace alex::core
