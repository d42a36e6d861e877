// Feature sets: the state representation of ALEX (paper §4.1).
//
// A link between entities E1 (left data set) and E2 (right data set) is
// represented by a feature set. A *feature* is a pair of predicates
// (p1 from E1, p2 from E2); its *value* is the similarity of the objects
// associated with those predicates. The feature set is built from the
// similarity matrix between the two entities' attributes: scores below the
// threshold θ are discarded, then the maximum of each row (if E1 has more
// attributes) or each column (otherwise) is kept.
//
// Feature keys are interned into a FeatureCatalog shared by all partitions
// so that FeatureIds are globally comparable.
//
// A feature set is two parallel arrays, feature ids ascending and their
// scores. FeatureSet owns them: BuildFeatureSetWithMasks fills one reused
// FeatureSet per worker, and a FeatureSpace copies it into its feature
// arena.
// FeatureSetView is the non-owning form every reader takes, whether the
// arrays are a FeatureSet's or a slice of a space's arena.
#ifndef ALEX_CORE_FEATURE_SET_H_
#define ALEX_CORE_FEATURE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/entity_view.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "similarity/value_similarity.h"

namespace alex::core {

using FeatureId = uint32_t;
inline constexpr FeatureId kInvalidFeatureId = 0xffffffffu;

// A borrowed pair of predicate IRIs. Interning through it copies the strings
// only when the key is new.
struct FeatureKeyView {
  std::string_view left_predicate;
  std::string_view right_predicate;

  friend bool operator==(FeatureKeyView a, FeatureKeyView b) {
    return a.left_predicate == b.left_predicate &&
           a.right_predicate == b.right_predicate;
  }
};

// A pair of predicate IRIs: (left data set predicate, right data set
// predicate).
struct FeatureKey {
  std::string left_predicate;
  std::string right_predicate;

  operator FeatureKeyView() const { return {left_predicate, right_predicate}; }
  friend bool operator==(const FeatureKey& a, const FeatureKey& b) {
    return a.left_predicate == b.left_predicate &&
           a.right_predicate == b.right_predicate;
  }
};

// Transparent hash for FeatureKey-keyed maps: a FeatureKeyView probe hashes
// the same as the owned key and needs no temporary string.
struct FeatureKeyHash {
  using is_transparent = void;
  size_t operator()(FeatureKeyView key) const {
    const size_t left = std::hash<std::string_view>{}(key.left_predicate);
    const size_t right = std::hash<std::string_view>{}(key.right_predicate);
    return left ^ (right + 0x9e3779b97f4a7c15ull + (left << 6) + (left >> 2));
  }
};

template <typename Value>
using FeatureKeyMap =
    std::unordered_map<FeatureKey, Value, FeatureKeyHash, std::equal_to<>>;

// Thread-safe interner for FeatureKeys.
class FeatureCatalog {
 public:
  FeatureCatalog() = default;
  FeatureCatalog(const FeatureCatalog&) = delete;
  FeatureCatalog& operator=(const FeatureCatalog&) = delete;

  FeatureId Intern(FeatureKeyView key);
  // `id` must be valid.
  FeatureKey Key(FeatureId id) const;
  size_t size() const;

  // Reassigns FeatureIds so keys are in (left, right) lexicographic order
  // and returns the old-id -> new-id permutation. Interning order depends on
  // which worker thread first sees a key, so ids straight out of a parallel
  // build vary run to run; canonicalizing makes every id — and everything
  // keyed on ids, like ε-greedy action order — a pure function of the data.
  // Invalidates FeatureIds held elsewhere (callers remap, see
  // FeatureSpace::RemapFeatures) and the caches of existing CatalogMemos.
  std::vector<FeatureId> Canonicalize();

 private:
  mutable std::mutex mu_;
  std::vector<FeatureKey> keys_;
  FeatureKeyMap<FeatureId> index_;
};

// An unsynchronized FeatureKey -> FeatureId cache in front of a shared
// FeatureCatalog. Each worker thread owns one, so the catalog mutex is only
// taken the first time that worker sees a key — never in the steady-state
// hot loop, where a hit allocates nothing. Interning the same key through
// any memo of the same catalog yields the same FeatureId (the catalog
// deduplicates under its lock).
class CatalogMemo {
 public:
  explicit CatalogMemo(FeatureCatalog* catalog) : catalog_(catalog) {}

  FeatureId Intern(FeatureKeyView key);

  const FeatureCatalog* catalog() const { return catalog_; }
  size_t cache_size() const { return cache_.size(); }

 private:
  FeatureCatalog* catalog_;
  FeatureKeyMap<FeatureId> cache_;
};

// A non-owning view of one sparse feature set: `size` (feature, score)
// entries sorted by feature id, held in two parallel arrays (a slice of a
// FeatureSpace's feature arena, or a FeatureSet). Valid while those arrays
// are. Iterating it yields (feature, score) pairs by value.
class FeatureSetView {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<FeatureId, double>;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;

    Iterator() = default;
    Iterator(const FeatureId* id, const double* score)
        : id_(id), score_(score) {}
    value_type operator*() const { return {*id_, *score_}; }
    Iterator& operator++() {
      ++id_;
      ++score_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.id_ == b.id_;
    }

   private:
    const FeatureId* id_ = nullptr;
    const double* score_ = nullptr;
  };

  FeatureSetView() = default;
  FeatureSetView(const FeatureId* ids, const double* scores, size_t size)
      : ids_(ids), scores_(scores), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  FeatureId feature(size_t i) const { return ids_[i]; }
  // Score of `id`, or 0 if absent.
  double Get(FeatureId id) const {
    const FeatureId* it = std::lower_bound(ids_, ids_ + size_, id);
    return it != ids_ + size_ && *it == id ? scores_[it - ids_] : 0.0;
  }

  Iterator begin() const { return {ids_, scores_}; }
  Iterator end() const { return {ids_ + size_, scores_ + size_}; }

 private:
  const FeatureId* ids_ = nullptr;
  const double* scores_ = nullptr;
  size_t size_ = 0;
};

// An owned sparse feature set, laid out like the view: what
// BuildFeatureSetWithMasks produces, and a FeatureSpace copies into its
// feature arena.
struct FeatureSet {
  std::vector<FeatureId> ids;  // ascending
  std::vector<double> scores;  // scores[i] is the score of ids[i]

  operator FeatureSetView() const {
    return {ids.data(), scores.data(), ids.size()};
  }
  // Score of `id`, or 0 if absent.
  double Get(FeatureId id) const { return FeatureSetView(*this).Get(id); }
  bool empty() const { return ids.empty(); }
  size_t size() const { return ids.size(); }
  // Keeps the capacity, so a reused set allocates only when it grows.
  void clear() {
    ids.clear();
    scores.clear();
  }

  // Inserts or maxes the score for `id`, keeping the ids sorted.
  void SetMax(FeatureId id, double score);
};

// A value preprocessed for fast repeated similarity computation: lowercased
// lexical form, sorted unique tokens, numeric/date interpretations.
struct PreparedValue {
  bool is_iri = false;
  rdf::LiteralType type = rdf::LiteralType::kString;
  std::string lowered;              // lowercase comparison text
  std::vector<std::string> tokens;  // sorted unique lowercase tokens
  bool has_numeric = false;
  double numeric = 0.0;
  int64_t date_days = 0;
};

struct PreparedAttribute {
  std::string predicate;  // predicate IRI
  PreparedValue value;
};

// An entity with preprocessed attributes, detached from its TripleStore.
struct PreparedEntity {
  std::string iri;
  rdf::TermId subject = rdf::kInvalidTermId;
  std::vector<PreparedAttribute> attributes;
};

// Preprocesses `term` for similarity computation.
PreparedValue PrepareValue(const rdf::Term& term);

// Materializes and preprocesses the entity rooted at `subject`. Attributes
// beyond `max_attributes` are dropped (0 = unlimited).
PreparedEntity PrepareEntity(const rdf::TripleStore& store,
                             rdf::TermId subject, size_t max_attributes = 0);

// Jaccard of two sorted-unique token vectors via a linear merge walk.
// Exported for reuse (blocking) and tests.
double SortedTokenJaccard(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

// Normalized Levenshtein similarity, 1 - dist / max(|a|, |b|), on
// pre-lowered strings, bit-identical to sim::NormalizedLevenshtein. The
// distance comes from a bit-parallel kernel (Myers 1999; Hyyrö's
// multi-word global form, 2003) with reusable thread-local tables: for
// lengths m <= n it takes O(n * ceil(m / 64)) word operations, exact for any
// length.
// `min_interesting` is a cutoff in similarity space: the result is exact
// whenever the true similarity is >= min_interesting; below the cutoff the
// function may return early, when the length difference alone rules the
// pair out, with some value < min_interesting. Callers that only compare the
// result against min_interesting (or take a max with a value >= it)
// therefore see identical behavior.
double FastNormalizedLevenshtein(const std::string& a, const std::string& b,
                                 double min_interesting = 0.0);

// Which similarity channels can still matter for a pair. The blocked build
// derives this from the block-key channels the pair collided on: a channel
// whose block cover guarantees "score >= θ implies a shared key" can be
// skipped entirely when no such key was shared — the skipped score would
// have been < θ and thus filtered anyway, so the resulting feature set is
// identical. Disabled channels contribute 0.0.
struct SimilarityChannelMask {
  bool equality = true;     // exact lowered-value equality comparisons
  bool jaccard = true;      // token-set Jaccard (needs a shared token)
  bool levenshtein = true;  // whole-value edit distance
  bool numeric = true;      // numeric tolerance channel
  bool dates = true;        // date distance channel

  static constexpr SimilarityChannelMask All() { return {}; }
  constexpr bool Any() const {
    return equality || jaccard || levenshtein || numeric || dates;
  }
};

// Allocation-light similarity on prepared values; mirrors
// sim::ValueSimilarity semantics. `min_interesting` propagates a caller-side
// cutoff (e.g. θ, or the best row score so far): the result is exact when
// it is >= min_interesting and may be an under-approximation below it.
// `mask` suppresses channels that provably cannot reach min_interesting.
double PreparedSimilarity(const PreparedValue& a, const PreparedValue& b,
                          const sim::SimilarityOptions& options = {},
                          double min_interesting = 0.0,
                          const SimilarityChannelMask& mask = {});

// Mask provider returning the same mask for every cell of the similarity
// matrix (the exhaustive build, and any caller with a pair-level mask).
struct UniformMaskProvider {
  SimilarityChannelMask mask;
  SimilarityChannelMask At(size_t, size_t) const { return mask; }
};

// Builds the feature set of the pair (left, right) per §4.1 into `set`
// (cleared first, its capacity reused): similarity matrix, θ-filtering,
// row/column maxima. Scores < theta do not appear.
// `Interner` is FeatureCatalog or CatalogMemo; `MaskProvider` yields the
// channel mask of each (left attr index, right attr index) cell, letting
// the blocked build skip cells whose channels provably stay below θ.
template <typename Interner, typename MaskProvider>
void BuildFeatureSetWithMasks(const PreparedEntity& left,
                              const PreparedEntity& right, Interner* interner,
                              double theta,
                              const sim::SimilarityOptions& options,
                              const MaskProvider& masks, FeatureSet* set) {
  set->clear();
  const size_t n = left.attributes.size();
  const size_t m = right.attributes.size();
  if (n == 0 || m == 0) return;
  // Row maxima when the left entity has at least as many attributes,
  // column maxima otherwise (§4.1).
  const bool rows_from_left = n >= m;
  const size_t outer = rows_from_left ? n : m;
  const size_t inner = rows_from_left ? m : n;
  for (size_t i = 0; i < outer; ++i) {
    double best = 0.0;
    size_t best_j = 0;
    for (size_t j = 0; j < inner; ++j) {
      const size_t li = rows_from_left ? i : j;
      const size_t ri = rows_from_left ? j : i;
      const SimilarityChannelMask mask = masks.At(li, ri);
      // A cell with every channel off scores exactly 0.0, which never
      // beats `best`: most blocked cells share no block key at all.
      if (!mask.Any()) continue;
      const PreparedAttribute& la = left.attributes[li];
      const PreparedAttribute& ra = right.attributes[ri];
      // Only scores that can still become this row's (>= θ) maximum need
      // to be exact; PreparedSimilarity may bail out early below that.
      double score = PreparedSimilarity(la.value, ra.value, options,
                                        std::max(theta, best), mask);
      if (score > best) {
        best = score;
        best_j = j;
      }
    }
    if (best < theta) continue;  // θ-filtering (§6.1)
    const PreparedAttribute& la =
        left.attributes[rows_from_left ? i : best_j];
    const PreparedAttribute& ra =
        right.attributes[rows_from_left ? best_j : i];
    FeatureId id =
        interner->Intern(FeatureKeyView{la.predicate, ra.predicate});
    set->SetMax(id, best);
  }
}

// BuildFeatureSetWithMasks with every similarity channel on: the exhaustive
// build. A CatalogMemo interner skips the catalog mutex (the parallel
// feature-space build uses one per thread).
template <typename Interner>
void BuildFeatureSet(const PreparedEntity& left, const PreparedEntity& right,
                     Interner* interner, double theta,
                     const sim::SimilarityOptions& options, FeatureSet* set) {
  BuildFeatureSetWithMasks(left, right, interner, theta, options,
                           UniformMaskProvider{}, set);
}

}  // namespace alex::core

#endif  // ALEX_CORE_FEATURE_SET_H_
