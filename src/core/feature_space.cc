#include "core/feature_space.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace alex::core {
namespace {

// Similarity channels a blocked cell can still clear θ through, from the
// bitmask of block-key channels its two values shared. Equality needs a
// shared whole-value key; Jaccard >= θ needs a shared token (or two
// token-free equal values, which share a value key); the numeric and date
// block covers are complete for scores >= θ. The Levenshtein channel's
// cover (tokens' deletion variants + whole-value q-grams) is the one
// heuristic piece — the same heuristic that admits the pair as a candidate
// at all; `blocking.enabled = false` remains the exact fallback.
constexpr SimilarityChannelMask MaskForChannels(uint8_t channels) {
  SimilarityChannelMask mask;
  mask.equality = channels & kBlockValue;
  mask.jaccard = channels & (kBlockToken | kBlockValue);
  mask.levenshtein = channels & (kBlockValue | kBlockToken | kBlockGram |
                                 kBlockDeletion);
  mask.numeric = channels & kBlockNumeric;
  mask.dates = channels & (kBlockDate | kBlockValue);
  return mask;
}

// All 2^6 channel combinations, precomputed.
constexpr std::array<SimilarityChannelMask, 64> kMaskByChannels = [] {
  std::array<SimilarityChannelMask, 64> table{};
  for (size_t c = 0; c < table.size(); ++c) {
    table[c] = MaskForChannels(static_cast<uint8_t>(c));
  }
  return table;
}();

// Serves BuildFeatureSetWithMasks from one candidate's 8x8 per-cell channel
// bitmasks (see ProbeScratch::cell_channels).
struct CellMaskProvider {
  const uint8_t* cells;
  SimilarityChannelMask At(size_t left_attr, size_t right_attr) const {
    const size_t a =
        left_attr < kCellAttrCap - 1 ? left_attr : kCellAttrCap - 1;
    const size_t b =
        right_attr < kCellAttrCap - 1 ? right_attr : kCellAttrCap - 1;
    return kMaskByChannels[cells[a * kCellAttrCap + b] & 63u];
  }
};

}  // namespace

PairId FeatureSpace::FindPairByIndex(uint32_t l, uint32_t r) const {
  if (l + 1 < build_pairs_of_left_.size()) {
    const uint32_t* rights = pairs_.right_index.data();
    const uint32_t* first = rights + build_pairs_of_left_[l];
    const uint32_t* last = rights + build_pairs_of_left_[l + 1];
    const uint32_t* it = std::lower_bound(first, last, r);
    if (it != last && *it == r) return static_cast<PairId>(it - rights);
  }
  const auto it = std::lower_bound(
      grown_pairs_.begin(), grown_pairs_.end(), std::pair{l, r},
      [](const GrownPair& pair, const std::pair<uint32_t, uint32_t>& key) {
        return std::pair{pair.left_index, pair.right_index} < key;
      });
  if (it != grown_pairs_.end() && it->left_index == l &&
      it->right_index == r) {
    return it->id;
  }
  return kInvalidPairId;
}

PairId FeatureSpace::FindPair(const std::string& left_iri,
                              const std::string& right_iri) const {
  const auto index_of = [](const std::vector<PreparedEntity>& entities,
                           const std::string& iri) {
    const auto it = std::find_if(
        entities.begin(), entities.end(),
        [&iri](const PreparedEntity& entity) { return entity.iri == iri; });
    return static_cast<size_t>(it - entities.begin());
  };
  const size_t left = index_of(left_entities_, left_iri);
  const size_t right = index_of(right_->entities, right_iri);
  if (left == left_entities_.size() || right == right_->entities.size()) {
    return kInvalidPairId;
  }
  return FindPairByIndex(static_cast<uint32_t>(left),
                         static_cast<uint32_t>(right));
}

namespace {

// Score-only comparators on pending entries: every entry with score == lo
// (or == hi) is inside the closed interval regardless of its PairId.
inline const ScoreEntry* LowerByScore(const ScoreEntry* begin,
                                      const ScoreEntry* end, double lo) {
  return std::lower_bound(
      begin, end, lo,
      [](const ScoreEntry& e, double v) { return e.score < v; });
}

inline const ScoreEntry* UpperByScore(const ScoreEntry* begin,
                                      const ScoreEntry* end, double hi) {
  return std::upper_bound(
      begin, end, hi,
      [](double v, const ScoreEntry& e) { return v < e.score; });
}

}  // namespace

FeatureSpace::ScoreSpan FeatureSpace::PairsInRangeSpan(FeatureId feature,
                                                       double lo,
                                                       double hi) const {
  if (static_cast<size_t>(feature) >= NumFeatures()) return {};
  const double* scores = index_scores_.data();
  const double* end = scores + feature_begin_[feature + 1];
  const double* first =
      std::lower_bound(scores + feature_begin_[feature], end, lo);
  const double* last = std::upper_bound(first, end, hi);
  const PairId* pairs = index_pairs_.data();
  const std::vector<ScoreEntry>& pending = pending_[feature];
  const ScoreEntry* pfirst = LowerByScore(
      pending.data(), pending.data() + pending.size(), lo);
  const ScoreEntry* plast =
      UpperByScore(pfirst, pending.data() + pending.size(), hi);
  // A space whose pairs are all live skips the per-entry liveness load.
  const uint8_t* alive =
      live_pair_count_ == pair_count() ? nullptr : pair_alive_.data();
  return ScoreSpan(first, pairs + (first - scores), pairs + (last - scores),
                   pfirst, plast, alive);
}

void FeatureSpace::PairsInRange(FeatureId feature, double lo, double hi,
                                std::vector<PairId>* out) const {
  out->clear();
  for (const ScoreEntry e : PairsInRangeSpan(feature, lo, hi)) {
    out->push_back(e.pair);
  }
}

std::vector<PairId> FeatureSpace::PairsInRange(FeatureId feature, double lo,
                                               double hi) const {
  std::vector<PairId> out;
  PairsInRange(feature, lo, hi, &out);
  return out;
}

void FeatureSpace::RemapFeatures(const std::vector<FeatureId>& old_to_new) {
  ALEX_CHECK(live_pair_count_ == pair_count() && grown_entries_ == 0)
      << "RemapFeatures needs a freshly built space: every pair live, no "
         "grown entries";
  std::vector<FeatureId>& features = pairs_.features;
  std::vector<double>& scores = pairs_.scores;
  for (FeatureId& id : features) id = old_to_new[id];
  // Re-sort each pair's slice by the new ids: an insertion sort, as a pair
  // has one or two features.
  for (PairId id = 0; id < pair_count(); ++id) {
    const uint32_t begin = pairs_.set_begin[id];
    for (uint32_t k = begin + 1; k < pairs_.set_begin[id + 1]; ++k) {
      const FeatureId feature = features[k];
      const double score = scores[k];
      uint32_t at = k;
      for (; at > begin && features[at - 1] > feature; --at) {
        features[at] = features[at - 1];
        scores[at] = scores[at - 1];
      }
      features[at] = feature;
      scores[at] = score;
    }
  }
  // Every bucket holds all its entries (none pending), and renaming its
  // feature keeps its (score, PairId) order: lay the buckets out in new-id
  // order, as BuildScoreIndex would, and move each one whole.
  const size_t num_features = NumFeatures();
  if (num_features == 0) return;
  auto width = [this](size_t f) {
    return feature_begin_[f + 1] - feature_begin_[f];
  };
  FeatureId max_feature = 0;
  for (size_t f = 0; f < num_features; ++f) {
    if (width(f) != 0) max_feature = std::max(max_feature, old_to_new[f]);
  }
  std::vector<uint32_t> begin(static_cast<size_t>(max_feature) + 2, 0);
  for (size_t f = 0; f < num_features; ++f) {
    if (width(f) != 0) begin[old_to_new[f] + 1] = width(f);
  }
  for (size_t f = 1; f < begin.size(); ++f) begin[f] += begin[f - 1];
  std::vector<double> index_scores(index_scores_.size());
  std::vector<PairId> index_pairs(index_pairs_.size());
  for (size_t f = 0; f < num_features; ++f) {
    if (width(f) == 0) continue;
    std::copy_n(index_scores_.begin() + feature_begin_[f], width(f),
                index_scores.begin() + begin[old_to_new[f]]);
    std::copy_n(index_pairs_.begin() + feature_begin_[f], width(f),
                index_pairs.begin() + begin[old_to_new[f]]);
  }
  index_scores_ = std::move(index_scores);
  index_pairs_ = std::move(index_pairs);
  feature_begin_.assign(begin.begin(), begin.end());
  pending_.assign(NumFeatures(), {});
}

void FeatureSpace::SetLiveness(const std::vector<PairId>& added,
                               const std::vector<PairId>& removed) {
  for (PairId id : removed) {
    if (!pair_alive_[id]) continue;
    pair_alive_[id] = 0;
    --live_pair_count_;
  }
  for (PairId id : added) {
    if (pair_alive_[id]) continue;
    pair_alive_[id] = 1;
    ++live_pair_count_;
  }
}

void FeatureSpace::MarkAllLive() {
  pair_alive_.assign(pair_count(), 1);
  live_pair_count_ = pair_count();
}

uint64_t FeatureSpace::Fingerprint() const {
  // FNV-1a over the logical live contents, in PairId order. Pending growth
  // and fold history never enter the hash.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(live_pair_count_);
  for (PairId id = 0; id < pair_count(); ++id) {
    if (!pair_alive_[id]) continue;
    const PairView view = pair(id);
    mix(id);
    mix(view.left_index);
    mix(view.right_index);
    mix(view.features.size());
    for (const auto& [feature, score] : view.features) {
      mix(feature);
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(score));
      std::memcpy(&bits, &score, sizeof(bits));
      mix(bits);
    }
  }
  return hash;
}

size_t FeatureSpace::MemoryBytes() const {
  auto bytes = [](const auto& array) {
    return array.capacity() * sizeof(array[0]);
  };
  size_t total = bytes(pairs_.left_index) + bytes(pairs_.right_index) +
                 bytes(pairs_.set_begin) + bytes(pairs_.features) +
                 bytes(pairs_.scores) + bytes(pair_alive_) +
                 bytes(build_pairs_of_left_) + bytes(grown_pairs_) +
                 bytes(index_scores_) + bytes(index_pairs_) +
                 bytes(feature_begin_) + bytes(pending_);
  for (const std::vector<ScoreEntry>& pending : pending_) {
    total += bytes(pending);
  }
  return total;
}

void FeatureSpace::BuildScoreIndex() {
  // Counting sort into a CSR arena: count entries per feature, prefix-sum
  // into offsets, scatter, then sort each feature's bucket by (score, pair).
  // Exactly-sized allocations — no incremental map/vector growth. Every
  // pair's entries are materialized regardless of liveness: the liveness
  // flags alone say which are explorable, so link churn never touches the
  // index.
  const size_t num_pairs = pair_count();
  grown_entries_ = 0;  // every entry gets an arena slot below
  const std::vector<FeatureId>& features = pairs_.features;
  const size_t total = features.size();
  if (total == 0) {
    index_scores_.clear();
    index_pairs_.clear();
    feature_begin_.clear();
    pending_.clear();
    return;
  }
  // The bucket offsets are 32-bit, like the feature arena's.
  ALEX_CHECK(total <= UINT32_MAX) << "score index exceeds 2^32 entries";
  const FeatureId max_feature =
      *std::max_element(features.begin(), features.end());
  feature_begin_.assign(static_cast<size_t>(max_feature) + 2, 0);
  for (FeatureId feature : features) ++feature_begin_[feature + 1];
  for (size_t f = 1; f < feature_begin_.size(); ++f) {
    feature_begin_[f] += feature_begin_[f - 1];
  }
  // Scatter and sort whole entries, then split them into the score and
  // PairId arrays.
  std::vector<ScoreEntry> entries(total);
  std::vector<uint32_t> next(feature_begin_.begin(), feature_begin_.end() - 1);
  for (PairId id = 0; id < num_pairs; ++id) {
    for (uint32_t k = pairs_.set_begin[id]; k < pairs_.set_begin[id + 1];
         ++k) {
      entries[next[features[k]]++] = ScoreEntry{pairs_.scores[k], id};
    }
  }
  for (size_t f = 0; f + 1 < feature_begin_.size(); ++f) {
    std::sort(entries.begin() + feature_begin_[f],
              entries.begin() + feature_begin_[f + 1]);
  }
  // assign() reuses the capacity, or allocates exactly `total` when the
  // space grew.
  index_scores_.assign(total, 0.0);
  index_pairs_.assign(total, 0);
  for (size_t i = 0; i < total; ++i) {
    index_scores_[i] = entries[i].score;
    index_pairs_[i] = entries[i].pair;
  }
  pending_.assign(NumFeatures(), {});
}

void FeatureSpace::PairArrays::Reserve(size_t pairs, size_t entries) {
  left_index.reserve(pairs);
  right_index.reserve(pairs);
  set_begin.reserve(pairs + 1);
  features.reserve(entries);
  scores.reserve(entries);
}

void FeatureSpace::PairArrays::Append(uint32_t left, uint32_t right,
                                      const FeatureSet& set) {
  ALEX_CHECK(features.size() + set.size() <= UINT32_MAX)
      << "feature arena offsets overflow 32 bits";
  left_index.push_back(left);
  right_index.push_back(right);
  features.insert(features.end(), set.ids.begin(), set.ids.end());
  scores.insert(scores.end(), set.scores.begin(), set.scores.end());
  set_begin.push_back(static_cast<uint32_t>(features.size()));
}

void FeatureSpace::PairArrays::Append(const PairArrays& other) {
  ALEX_CHECK(features.size() + other.features.size() <= UINT32_MAX)
      << "feature arena offsets overflow 32 bits";
  const uint32_t base = static_cast<uint32_t>(features.size());
  left_index.insert(left_index.end(), other.left_index.begin(),
                    other.left_index.end());
  right_index.insert(right_index.end(), other.right_index.begin(),
                     other.right_index.end());
  for (size_t i = 1; i < other.set_begin.size(); ++i) {
    set_begin.push_back(base + other.set_begin[i]);
  }
  features.insert(features.end(), other.features.begin(),
                  other.features.end());
  scores.insert(scores.end(), other.scores.begin(), other.scores.end());
}

std::shared_ptr<const RightContext> RightContext::Prepare(
    const rdf::TripleStore& right,
    const std::vector<rdf::TermId>& right_subjects,
    const FeatureSpaceOptions& options, ThreadPool* pool) {
  auto context = std::make_shared<RightContext>();
  context->entities.resize(right_subjects.size());
  auto prepare_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      context->entities[i] =
          PrepareEntity(right, right_subjects[i], kMaxAttributes);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(right_subjects.size(), 16, prepare_range);
  } else {
    prepare_range(0, right_subjects.size());
  }
  if (options.blocking.enabled) {
    context->index = BlockingIndex::Build(context->entities, options.blocking,
                                          pool);
  }
  return context;
}

FeatureSpace FeatureSpace::Build(const rdf::TripleStore& left,
                                 const std::vector<rdf::TermId>& left_subjects,
                                 std::shared_ptr<const RightContext> right,
                                 FeatureCatalog* catalog,
                                 const FeatureSpaceOptions& options,
                                 ThreadPool* pool) {
  FeatureSpace space;
  space.catalog_ = catalog;
  space.right_ = std::move(right);
  space.left_entities_.reserve(left_subjects.size());
  for (rdf::TermId subject : left_subjects) {
    space.left_entities_.push_back(
        PrepareEntity(left, subject, kMaxAttributes));
  }
  const std::vector<PreparedEntity>& rights = space.right_->entities;
  space.total_pair_count_ =
      static_cast<uint64_t>(left_subjects.size()) * rights.size();
  const BlockingIndex* index =
      options.blocking.enabled && !space.right_->index.empty()
          ? &space.right_->index
          : nullptr;

  // Shard the left-entity loop. Each chunk scores its pairs into private
  // arrays through a private CatalogMemo (the shared catalog mutex is only
  // touched on first-seen keys); the chunks are then concatenated in chunk
  // order into exactly reserved arrays, so the surviving pairs — and
  // therefore PairIds — always come out in (left, right) lexicographic
  // order, whatever the thread count.
  struct ChunkResult {
    PairArrays pairs;
    uint64_t scored = 0;
  };
  const size_t n = space.left_entities_.size();
  size_t num_chunks = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    num_chunks =
        std::min<size_t>(std::max<size_t>(n, 1),
                         static_cast<size_t>(pool->num_threads()) * 4);
  }
  const size_t chunk_size = n == 0 ? 1 : (n + num_chunks - 1) / num_chunks;
  std::vector<std::pair<size_t, size_t>> chunks;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    chunks.emplace_back(begin, std::min(n, begin + chunk_size));
  }
  std::vector<ChunkResult> results(chunks.size());

  auto build_chunk = [&](size_t c) {
    ChunkResult& result = results[c];
    CatalogMemo memo(catalog);
    ProbeScratch scratch;
    FeatureSet features;  // reused for every scored pair
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      const PreparedEntity& left_entity = space.left_entities_[i];
      auto keep = [&](uint32_t j) {
        ++result.scored;
        if (features.empty()) return;  // dropped by θ-filtering
        result.pairs.Append(static_cast<uint32_t>(i), j, features);
      };
      if (index != nullptr) {
        index->Probe(left_entity, &scratch);
        for (uint32_t j : scratch.touched()) {
          BuildFeatureSetWithMasks(left_entity, rights[j], &memo, options.theta,
                                   CellMaskProvider{scratch.cell_channels(j)},
                                   &features);
          keep(j);
        }
      } else {
        for (uint32_t j = 0; j < rights.size(); ++j) {
          BuildFeatureSet(left_entity, rights[j], &memo, options.theta,
                          &features);
          keep(j);
        }
      }
    }
  };

  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), 1, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) build_chunk(c);
    });
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) build_chunk(c);
  }

  size_t num_pairs = 0;
  size_t num_entries = 0;
  for (const ChunkResult& result : results) {
    num_pairs += result.pairs.size();
    num_entries += result.pairs.features.size();
  }
  ALEX_CHECK(num_pairs < kInvalidPairId) << "PairIds overflow 32 bits";
  space.pairs_.Reserve(num_pairs, num_entries);
  space.build_pairs_of_left_.assign(n + 1, 0);
  for (ChunkResult& result : results) {
    space.scored_pair_count_ += result.scored;
    for (uint32_t left : result.pairs.left_index) {
      ++space.build_pairs_of_left_[left + 1];
    }
    space.pairs_.Append(result.pairs);
    result.pairs = {};  // free the chunk before copying the next one
  }
  for (size_t i = 0; i < n; ++i) {
    space.build_pairs_of_left_[i + 1] += space.build_pairs_of_left_[i];
  }
  space.compaction_threshold_ = options.compaction_threshold;
  space.pair_alive_.assign(num_pairs, 1);
  space.live_pair_count_ = num_pairs;
  space.BuildScoreIndex();
  return space;
}

FeatureSpace FeatureSpace::Build(const rdf::TripleStore& left,
                                 const std::vector<rdf::TermId>& left_subjects,
                                 const rdf::TripleStore& right,
                                 const std::vector<rdf::TermId>& right_subjects,
                                 FeatureCatalog* catalog,
                                 const FeatureSpaceOptions& options,
                                 ThreadPool* pool) {
  return Build(left, left_subjects,
               RightContext::Prepare(right, right_subjects, options), catalog,
               options, pool);
}

FeatureSpace::GrowthResult FeatureSpace::Grow(
    const rdf::TripleStore& left,
    const std::vector<rdf::TermId>& new_left_subjects,
    const std::vector<CandidatePair>* old_left_pairs, size_t old_right_count,
    FeatureCatalog* catalog, const FeatureSpaceOptions& options,
    bool rebuild_indexes) {
  GrowthResult result;
  const std::vector<PreparedEntity>& rights = right_->entities;
  const size_t old_left_count = left_entities_.size();
  const BlockingIndex* index =
      options.blocking.enabled && !right_->index.empty() ? &right_->index
                                                         : nullptr;
  total_pair_count_ +=
      static_cast<uint64_t>(old_left_count) *
          (rights.size() - old_right_count) +
      static_cast<uint64_t>(new_left_subjects.size()) * rights.size();

  for (rdf::TermId subject : new_left_subjects) {
    left_entities_.push_back(PrepareEntity(left, subject, kMaxAttributes));
  }

  // Delta discovery runs serially on purpose: ingest deltas are small, and
  // a fixed enumeration order makes new PairIds — and the catalog's intern
  // order for first-seen feature keys — canonical across thread counts AND
  // across the incremental / rebuild maintenance modes.
  CatalogMemo memo(catalog);
  ProbeScratch scratch;
  FeatureSet features;  // reused for every scored pair
  PairArrays fresh;
  auto keep = [&](uint32_t i, uint32_t j) {
    ++scored_pair_count_;
    if (features.empty()) return;  // dropped by θ-filtering
    fresh.Append(i, j, features);
  };
  auto score_left = [&](size_t i, uint32_t min_right) {
    const PreparedEntity& left_entity = left_entities_[i];
    if (index != nullptr) {
      index->Probe(left_entity, &scratch, min_right);
      for (uint32_t j : scratch.touched()) {
        BuildFeatureSetWithMasks(left_entity, rights[j], &memo, options.theta,
                                 CellMaskProvider{scratch.cell_channels(j)},
                                 &features);
        keep(static_cast<uint32_t>(i), j);
      }
    } else {
      for (uint32_t j = min_right; j < rights.size(); ++j) {
        BuildFeatureSet(left_entity, rights[j], &memo, options.theta,
                        &features);
        keep(static_cast<uint32_t>(i), j);
      }
    }
  };
  // Phase 1: old lefts against the new rights only — the probed list, or a
  // min_right-restricted forward probe of every old left (the probe state
  // equals a full probe restricted to the new rights).
  if (old_right_count < rights.size()) {
    if (old_left_pairs != nullptr && index != nullptr) {
      for (const CandidatePair& pair : *old_left_pairs) {
        BuildFeatureSetWithMasks(left_entities_[pair.left], rights[pair.right],
                                 &memo, options.theta,
                                 CellMaskProvider{pair.cells.data()},
                                 &features);
        keep(pair.left, pair.right);
      }
    } else {
      const uint32_t first_new = static_cast<uint32_t>(old_right_count);
      for (size_t i = 0; i < old_left_count; ++i) score_left(i, first_new);
    }
  }
  // Phase 2: new lefts against every right.
  for (size_t i = old_left_count; i < left_entities_.size(); ++i) {
    score_left(i, 0);
  }

  const PairId first_new_pair = static_cast<PairId>(pair_count());
  const size_t grown_before = grown_pairs_.size();
  ALEX_CHECK(pair_count() + fresh.size() < kInvalidPairId)
      << "PairIds overflow 32 bits";
  pairs_.Append(fresh);
  for (size_t k = 0; k < fresh.size(); ++k) {
    grown_pairs_.push_back({fresh.left_index[k], fresh.right_index[k],
                            static_cast<PairId>(first_new_pair + k)});
  }
  // New pairs join the explorable frontier.
  pair_alive_.resize(pair_count(), 1);
  live_pair_count_ += fresh.size();
  auto by_left_right = [](const GrownPair& a, const GrownPair& b) {
    return std::pair{a.left_index, a.right_index} <
           std::pair{b.left_index, b.right_index};
  };
  std::sort(grown_pairs_.begin() + grown_before, grown_pairs_.end(),
            by_left_right);
  std::inplace_merge(grown_pairs_.begin(),
                     grown_pairs_.begin() + grown_before, grown_pairs_.end(),
                     by_left_right);
  result.new_pairs = fresh.size();

  if (rebuild_indexes) {
    BuildScoreIndex();
    return result;
  }
  // Incremental: park each new entry in its feature's pending sidecar.
  // Features first seen in this delta get a zero-capacity bucket at the
  // arena's end; their entries stay pending until the next arena rebuild.
  const uint32_t arena_end = static_cast<uint32_t>(index_scores_.size());
  // feature_begin_ is one longer than the per-bucket vectors (CSR offsets);
  // seed that invariant when the space was built with no entries at all.
  if (feature_begin_.empty()) feature_begin_.push_back(arena_end);
  for (PairId id = first_new_pair; id < pair_count(); ++id) {
    for (const auto& [feature, score] : pair(id).features) {
      while (feature_begin_.size() < static_cast<size_t>(feature) + 2) {
        feature_begin_.push_back(arena_end);
        pending_.emplace_back();
      }
      const ScoreEntry entry{score, id};
      std::vector<ScoreEntry>& pending = pending_[feature];
      pending.insert(std::lower_bound(pending.begin(), pending.end(), entry),
                     entry);
      ++grown_entries_;
      ++result.overflow_entries;
    }
  }
  return result;
}

void FeatureSpace::MaybeCompactArena() {
  if (grown_entries_ == 0) return;
  if (grown_entries_ > compaction_threshold_ + index_scores_.size() / 8) {
    BuildScoreIndex();  // resets grown_entries_: every entry gets a slot
  }
}

}  // namespace alex::core
