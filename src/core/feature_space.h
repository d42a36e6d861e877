// The pre-processed space of feature sets (paper §3.2: "ALEX explores links
// in a space of feature sets. This space is populated in a pre-processing
// step, with a feature set for every pair of entities in the two data
// sets.").
//
// A FeatureSpace is built for one partition of the left data set against the
// whole right data set (§6.2). Pairs whose feature set is empty after
// θ-filtering are dropped (§6.1), which removes ~95% of the raw cross
// product. Each feature gets a score-sorted index so that an ALEX action —
// "find all links whose value for feature f lies in [v − step, v + step]" —
// is a binary-search range query.
//
// Construction is organized for scale:
//   * The right data set is prepared ONCE into a shared RightContext
//     (preprocessed entities + the inverted blocking index) instead of once
//     per partition.
//   * With blocking enabled (the default), only pairs sharing at least one
//     block key are scored; everything else is provably-or-empirically below
//     θ and skipped (see core/blocking.h). `blocking.enabled = false`
//     restores the paper's literal exhaustive cross product.
//   * When given a ThreadPool, Build shards the left-entity loop across it.
//     Chunks are reassembled in order, so the surviving pairs — and thus
//     PairIds — come out in (left, right) lexicographic order regardless of
//     the thread count.
//
// Layout: kept pairs are structure-of-arrays, indexed by PairId — exact-size
// left_index / right_index arrays and a 32-bit offset per pair into one CSR
// feature arena of parallel feature-id and score arrays — so a kept pair
// costs about 38 bytes with its score-index entries and liveness byte, and
// no heap block of its own. pair(id) returns a non-owning view of it. The
// score index is split the same way, into a score array and a PairId array.
//
// The explorable frontier (§4's feedback loop adds and removes links every
// episode) is one liveness byte per pair. SetLiveness flips the bytes of
// the pairs that changed, in O(changed pairs), and link churn never edits
// the score index: PairsInRangeSpan skips non-live entries as it walks a
// band. Only Build, RemapFeatures and ingest growth write the index; Grow
// parks new entries in sorted per-feature pending sidecars until
// MaybeCompactArena folds them back. Probes stay allocation-free: the span
// merges the bucket range with the pending range lazily. See DESIGN.md,
// "The explorable frontier: one liveness flag per pair".
#ifndef ALEX_CORE_FEATURE_SPACE_H_
#define ALEX_CORE_FEATURE_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/blocking.h"
#include "core/feature_set.h"

namespace alex::core {

// Index of a pair within a FeatureSpace.
using PairId = uint32_t;
inline constexpr PairId kInvalidPairId = 0xffffffffu;

// Cap on the attributes of an entity that its pairs are scored on: the
// feature spaces, the right context and ingest prepare every entity with
// PrepareEntity(store, subject, kMaxAttributes).
inline constexpr size_t kMaxAttributes = 16;

struct FeatureSpaceOptions {
  // Similarity scores below theta are zeroed (§6.1; default from the paper).
  double theta = 0.3;
  // Candidate blocking for the pairwise scoring loop (see core/blocking.h).
  BlockingOptions blocking;
  // Growth-pending score entries are folded back into the CSR arena once
  // they exceed compaction_threshold + arena_size/8 (see FeatureSpace::
  // MaybeCompactArena). 0 folds at the first boundary after any growth;
  // larger values amortize more growth per fold.
  size_t compaction_threshold = 32;
};

// The right data set prepared once and shared (immutably) by every
// partition's Build: preprocessed entities plus, when blocking is enabled,
// the inverted block-key index over them.
struct RightContext {
  std::vector<PreparedEntity> entities;
  BlockingIndex index;  // empty when blocking is disabled

  // With a pool, entity preparation and the index build are sharded across
  // its workers; the resulting context is identical to the serial one.
  static std::shared_ptr<const RightContext> Prepare(
      const rdf::TripleStore& right,
      const std::vector<rdf::TermId>& right_subjects,
      const FeatureSpaceOptions& options, ThreadPool* pool = nullptr);
};

// One (score, pair) entry of the per-feature score index. Entries with equal
// scores are ordered by PairId so every index build yields the same bytes.
struct ScoreEntry {
  double score;
  PairId pair;
  friend bool operator<(const ScoreEntry& a, const ScoreEntry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.pair < b.pair;
  }
  friend bool operator==(const ScoreEntry& a, const ScoreEntry& b) {
    return a.score == b.score && a.pair == b.pair;
  }
};

class FeatureSpace {
 public:
  // Non-owning, allocation-free view of one feature's live entries in a
  // score band: a lazy (score, pair)-ordered merge of the bucket range of the
  // split score index and the bucket's sorted range of growth not yet folded
  // into the arena, both streams skipping non-live pairs via the liveness
  // flags. Iterating yields ScoreEntry values. Valid until the space is
  // destroyed, mutated (SetLiveness / MarkAllLive / Grow /
  // MaybeCompactArena), or remapped.
  class ScoreSpan {
   public:
    class Iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = ScoreEntry;
      using difference_type = std::ptrdiff_t;
      using reference = ScoreEntry;

      Iterator() = default;
      Iterator(const double* score, const PairId* pair,
               const PairId* pair_end, const ScoreEntry* pending,
               const ScoreEntry* pending_end, const uint8_t* alive)
          : score_(score),
            pair_(pair),
            pair_end_(pair_end),
            pending_(pending),
            pending_end_(pending_end),
            alive_(alive) {
        SkipDead();
      }

      ScoreEntry operator*() const {
        return TakeBucket() ? ScoreEntry{*score_, *pair_} : *pending_;
      }
      Iterator& operator++() {
        if (TakeBucket()) {
          ++score_;
          ++pair_;
        } else {
          ++pending_;
        }
        SkipDead();
        return *this;
      }
      Iterator operator++(int) {
        Iterator copy = *this;
        ++*this;
        return copy;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.pair_ == b.pair_ && a.pending_ == b.pending_;
      }

     private:
      bool TakeBucket() const {
        if (pair_ == pair_end_) return false;
        if (pending_ == pending_end_) return true;
        return ScoreEntry{*score_, *pair_} < *pending_;
      }
      // Moves both cursors past non-live pairs. The pending stream needs
      // it too: a grown pair can become a candidate before the fold.
      void SkipDead() {
        if (alive_ == nullptr) return;
        while (pair_ != pair_end_ && !alive_[*pair_]) {
          ++score_;
          ++pair_;
        }
        while (pending_ != pending_end_ && !alive_[pending_->pair]) {
          ++pending_;
        }
      }

      // The bucket range: parallel cursors into the score and PairId
      // arrays of the score index.
      const double* score_ = nullptr;
      const PairId* pair_ = nullptr;
      const PairId* pair_end_ = nullptr;
      const ScoreEntry* pending_ = nullptr;
      const ScoreEntry* pending_end_ = nullptr;
      // The liveness flags; null when every pair of the space is live, so
      // no flag is read.
      const uint8_t* alive_ = nullptr;
    };

    ScoreSpan() = default;
    ScoreSpan(const double* score, const PairId* pair, const PairId* pair_end,
              const ScoreEntry* pending, const ScoreEntry* pending_end,
              const uint8_t* alive)
        : score_(score),
          pair_(pair),
          pair_end_(pair_end),
          pending_(pending),
          pending_end_(pending_end),
          alive_(alive) {}

    Iterator begin() const {
      return Iterator(score_, pair_, pair_end_, pending_, pending_end_,
                      alive_);
    }
    Iterator end() const {
      return Iterator(score_ + (pair_end_ - pair_), pair_end_, pair_end_,
                      pending_end_, pending_end_, nullptr);
    }
    bool empty() const { return begin() == end(); }
    // O(entries in the band) — the merge is lazy, so the live count is not
    // known up front. The hot exploration loop iterates and never calls
    // size(); it is here for tests and diagnostics.
    size_t size() const {
      size_t n = 0;
      for (Iterator it = begin(), stop = end(); it != stop; ++it) ++n;
      return n;
    }
    // O(i); test/diagnostic convenience, not for hot loops.
    ScoreEntry operator[](size_t i) const {
      Iterator it = begin();
      while (i-- > 0) ++it;
      return *it;
    }

   private:
    const double* score_ = nullptr;
    const PairId* pair_ = nullptr;
    const PairId* pair_end_ = nullptr;
    const ScoreEntry* pending_ = nullptr;
    const ScoreEntry* pending_end_ = nullptr;
    const uint8_t* alive_ = nullptr;
  };

  // A non-owning view of one kept pair: its two entity indexes and its
  // feature set, a slice of the space's feature arena. Valid until the space
  // is destroyed, grown or remapped.
  struct PairView {
    uint32_t left_index;   // into left_entities()
    uint32_t right_index;  // into right_entities()
    FeatureSetView features;
  };

  FeatureSpace() = default;
  FeatureSpace(FeatureSpace&&) = default;
  FeatureSpace& operator=(FeatureSpace&&) = default;
  FeatureSpace(const FeatureSpace&) = delete;
  FeatureSpace& operator=(const FeatureSpace&) = delete;

  const std::vector<PreparedEntity>& left_entities() const {
    return left_entities_;
  }
  const std::vector<PreparedEntity>& right_entities() const {
    static const std::vector<PreparedEntity> kNone;
    return right_ ? right_->entities : kNone;
  }
  // Kept pairs: PairIds are [0, pair_count()).
  size_t pair_count() const { return pairs_.left_index.size(); }
  PairView pair(PairId id) const {
    const uint32_t begin = pairs_.set_begin[id];
    return {pairs_.left_index[id], pairs_.right_index[id],
            FeatureSetView(pairs_.features.data() + begin,
                           pairs_.scores.data() + begin,
                           pairs_.set_begin[id + 1] - begin)};
  }

  // IRIs of the pair's two entities.
  const std::string& LeftIri(PairId id) const {
    return left_entities_[pairs_.left_index[id]].iri;
  }
  const std::string& RightIri(PairId id) const {
    return right_->entities[pairs_.right_index[id]].iri;
  }

  // Pair lookup by entity indexes (left_entities(), the right context's
  // entities); kInvalidPairId when the pair was filtered out of the space
  // (or never existed). Membership-agnostic: non-live pairs (current
  // candidates) are still found — callers that care about liveness check
  // IsLive(). A binary search over the left's Build pairs or the grown-pair
  // sidecar.
  PairId FindPairByIndex(uint32_t left_index, uint32_t right_index) const;
  // The same by entity IRIs (the first entity of each IRI). It scans the
  // entities, so it serves tests and diagnostics; the engine maps IRIs to
  // indexes through its own IRI table.
  PairId FindPair(const std::string& left_iri,
                  const std::string& right_iri) const;

  // All LIVE pairs whose score for `feature` lies in [lo, hi] (the
  // exploration action primitive). O(log n + entries in the band) and
  // allocation-free: the returned span lazily merges the CSR bucket range
  // with the bucket's pending growth, sorted by (score, pair), and steps
  // over the band's non-live entries. A space whose pairs are all live
  // reads no liveness byte.
  ScoreSpan PairsInRangeSpan(FeatureId feature, double lo, double hi) const;

  // Same query into a caller-owned scratch buffer (cleared first).
  void PairsInRange(FeatureId feature, double lo, double hi,
                    std::vector<PairId>* out) const;

  // Convenience allocating overload.
  std::vector<PairId> PairsInRange(FeatureId feature, double lo,
                                   double hi) const;

  // ---- The explorable frontier ----------------------------------------
  //
  // A pair is live while it is explorable: not a current candidate of its
  // partition. Build makes every pair live, and Grow's new pairs join
  // live. SetLiveness clears
  // the flags of `removed` and sets those of `added`, in O(changed pairs);
  // it is the frontier's one write, and it leaves the score index alone
  // (probes skip non-live entries). Pairs already in the requested state
  // are ignored (idempotent); removals are applied before additions.
  void SetLiveness(const std::vector<PairId>& added,
                   const std::vector<PairId>& removed);

  // Marks every pair live, a plain flag reset (ImportEngineState's reset
  // path, where per-pair deltas are not available).
  void MarkAllLive();

  // ---- Frontier growth under triple ingest ---------------------------
  //
  // Extends the space after the stores grew: `new_left_subjects` are this
  // partition's newly ingested left entities (appended to left_entities()
  // in order), and right_->entities has already been extended past
  // `old_right_count`. New pairs are discovered in canonical (left, right)
  // lexicographic order — old lefts against the new rights first (phase
  // 1), then new lefts against all rights (phase 2) — and appended with
  // fresh PairIds, live.
  //
  // With `rebuild_indexes` the score arena is rebuilt from scratch (the
  // O(space) baseline); otherwise new entries land in the per-feature
  // sorted pending sidecars in O(new pairs), where they stay until
  // MaybeCompactArena() folds the growth back into the CSR arena. Both
  // modes yield the same logical space (same PairIds, same Fingerprint()).
  //
  // `old_left_pairs` is phase 1 already probed: every (old left, new
  // right) pair whose forward probe of the right index collides, sorted by
  // (left, right), with its cell masks — the engine finds them with one
  // ReverseProbeIndex probe per new right. Grow scores exactly that list.
  // It is used only with blocking on and a non-empty right index; pass
  // nullptr to forward-probe every old left against the new rights (the
  // rebuild baseline), and without blocking phase 1 is the exhaustive
  // cross product either way.
  struct GrowthResult {
    size_t new_pairs = 0;
    // Score entries parked in pending sidecars (incremental mode only).
    size_t overflow_entries = 0;
  };
  GrowthResult Grow(const rdf::TripleStore& left,
                    const std::vector<rdf::TermId>& new_left_subjects,
                    const std::vector<CandidatePair>* old_left_pairs,
                    size_t old_right_count, FeatureCatalog* catalog,
                    const FeatureSpaceOptions& options, bool rebuild_indexes);

  // Folds growth-pending score entries back into the CSR arena (a full,
  // counting-sort rebuild) once they outgrow compaction_threshold +
  // arena/8 — the episode-boundary "background compaction" hook. No-op
  // when nothing grew.
  void MaybeCompactArena();
  // Growth entries currently outside the CSR arena.
  size_t grown_entry_count() const { return grown_entries_; }

  bool IsLive(PairId id) const { return pair_alive_[id] != 0; }
  size_t live_pair_count() const { return live_pair_count_; }

  // Order-independent hash of the LOGICAL live contents — live pairs, their
  // entity indexes and feature sets — independent of physical index state
  // (pending growth, fold history). Two spaces with the same live contents
  // fingerprint equal however their churn and growth were applied.
  uint64_t Fingerprint() const;

  // Bytes allocated for the pair layout, summed from the capacities of its
  // arrays: the per-pair index, offset and liveness arrays, the feature
  // arena, the score index with its bucket offsets and pending buffers,
  // and the pair lookup. The prepared left entities (per left entity, not
  // per pair) are not counted.
  size_t MemoryBytes() const;

  // Applies an old-id -> new-id permutation (from FeatureCatalog::
  // Canonicalize) to every pair's feature set and score index. Only for a
  // freshly built space (ALEX_CHECKed: every pair live, nothing grown):
  // renaming a feature keeps its bucket's (score, PairId) order, so each
  // bucket moves whole to its new id's offset, with no re-sort. The result
  // equals a score-index rebuild.
  void RemapFeatures(const std::vector<FeatureId>& old_to_new);

  // Raw size of the cross product this space was built from (before
  // θ-filtering); pair_count() is the filtered size. Figure 5 reports
  // both.
  uint64_t total_pair_count() const { return total_pair_count_; }

  // Pairs actually sent to BuildFeatureSet. Equal to total_pair_count()
  // when exhaustive; with blocking, total - scored pairs were pruned
  // without scoring.
  uint64_t scored_pair_count() const { return scored_pair_count_; }
  uint64_t pruned_pair_count() const {
    return total_pair_count_ - scored_pair_count_;
  }

  // The catalog is shared and owned by the caller of Build.
  const FeatureCatalog* catalog() const { return catalog_; }

  // Builds the space for `left_subjects` × `right` (a RightContext shared
  // across partitions). With a pool, the left-entity loop is sharded across
  // its workers; output is identical to the serial build.
  static FeatureSpace Build(const rdf::TripleStore& left,
                            const std::vector<rdf::TermId>& left_subjects,
                            std::shared_ptr<const RightContext> right,
                            FeatureCatalog* catalog,
                            const FeatureSpaceOptions& options,
                            ThreadPool* pool = nullptr);

  // Convenience overload that prepares the right side itself.
  static FeatureSpace Build(const rdf::TripleStore& left,
                            const std::vector<rdf::TermId>& left_subjects,
                            const rdf::TripleStore& right,
                            const std::vector<rdf::TermId>& right_subjects,
                            FeatureCatalog* catalog,
                            const FeatureSpaceOptions& options,
                            ThreadPool* pool = nullptr);

 private:
  // Kept pairs in structure-of-arrays form: pair i has entity indexes
  // left_index[i] and right_index[i], and its feature set is entries
  // [set_begin[i], set_begin[i + 1]) of the CSR feature arena `features` /
  // `scores`, sorted by feature id. Build fills one per chunk and
  // concatenates them; Grow appends.
  struct PairArrays {
    std::vector<uint32_t> left_index;
    std::vector<uint32_t> right_index;
    std::vector<uint32_t> set_begin{0};  // one more than the pairs
    std::vector<FeatureId> features;
    std::vector<double> scores;

    size_t size() const { return left_index.size(); }
    void Reserve(size_t pairs, size_t entries);
    void Append(uint32_t left, uint32_t right, const FeatureSet& set);
    void Append(const PairArrays& other);
  };

  void BuildScoreIndex();
  size_t NumFeatures() const {
    return feature_begin_.empty() ? 0 : feature_begin_.size() - 1;
  }

  std::vector<PreparedEntity> left_entities_;
  std::shared_ptr<const RightContext> right_;
  PairArrays pairs_;
  // FindPairByIndex's index. Build emits pairs in (left, right) order, so
  // left i's Build pairs are PairIds [build_pairs_of_left_[i],
  // build_pairs_of_left_[i + 1]), ascending by right index; lefts that Grow
  // appended have none. Grow's pairs sit in grown_pairs_, sorted by (left,
  // right).
  struct GrownPair {
    uint32_t left_index;
    uint32_t right_index;
    PairId id;
  };
  std::vector<uint32_t> build_pairs_of_left_;
  std::vector<GrownPair> grown_pairs_;
  // CSR score index, split into parallel score and PairId arrays (12 bytes
  // an entry): it holds the (score, pair) of every pair, live or not, at
  // its last build, grouped by feature and sorted by (score, pair) within
  // each group; feature f's entries occupy [feature_begin_[f],
  // feature_begin_[f + 1]). Entries Grow() added since sit in pending_[f],
  // sorted by (score, pair).
  std::vector<double> index_scores_;
  std::vector<PairId> index_pairs_;
  std::vector<uint32_t> feature_begin_;
  std::vector<std::vector<ScoreEntry>> pending_;
  // Liveness flags, the frontier (uint8_t for cheap random access in probe
  // loops).
  std::vector<uint8_t> pair_alive_;
  size_t live_pair_count_ = 0;
  size_t compaction_threshold_ = 32;
  // Entries in pending_, added by Grow() and not yet given a CSR arena
  // slot; reset by any full BuildScoreIndex().
  size_t grown_entries_ = 0;
  uint64_t total_pair_count_ = 0;
  uint64_t scored_pair_count_ = 0;
  const FeatureCatalog* catalog_ = nullptr;
};

}  // namespace alex::core

#endif  // ALEX_CORE_FEATURE_SPACE_H_
