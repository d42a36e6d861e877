// Candidate blocking for feature-space construction.
//
// The paper's pre-processing step (§3.2, §6.1) scores *every* pair in
// L × R and only then θ-filters ~95% of the pairs away. Record-linkage
// systems avoid that quadratic cost with blocking: an inverted index from
// cheap "block keys" to the entities that exhibit them, so that the
// expensive pairwise scoring only runs on pairs that share at least one
// block. This file implements that index over the *right* data set; the
// left entities probe it (see FeatureSpace::Build). For live ingest it also
// implements the reverse: an index of the left entities' probe-side keys,
// which each newly ingested right probes once to find exactly the old lefts
// whose forward probe would reach it (see ReverseProbeIndex). Both keep
// their postings in a PostingTable.
//
// Block keys per prepared value (see AppendBlockKeys):
//   * the whole lowered value       — exact-match channels (booleans,
//                                     date-vs-string equality, empty values)
//   * every normalized token        — covers any token-Jaccard score > 0
//   * deletion variants (≤ D       — guaranteed cover for edit distance
//     deletions) of short tokens      ≤ D; handles the typo'd values that
//                                     only match via edit distance
//   * q-grams of the whole value    — the Levenshtein channel compares
//                                     whole lowered values, so borderline
//                                     matches may share only substrings
//                                     that straddle token boundaries.
//                                     (Size-tiered: one gram length per
//                                     value-length tier; probes cover every
//                                     tier reachable under the noise-floor
//                                     length-ratio bound.)
//   * a logarithmic numeric bucket  — covers NumericSimilarity ≥ θ (the
//                                     query probes neighbor buckets)
//   * a coarse date bucket          — covers DateSimilarity ≥ θ (ditto)
//
// The numeric, date, token, boolean and exact-match similarity channels are
// fully covered: any pair scoring ≥ θ through them shares a block. The pure
// Levenshtein channel on long garbled values is covered heuristically by
// the trigram/deletion keys; FeatureSpaceOptions::blocking.enabled = false
// falls back to the exhaustive cross product, and the test suite asserts
// blocked == exhaustive on the synthetic evaluation worlds.
#ifndef ALEX_CORE_BLOCKING_H_
#define ALEX_CORE_BLOCKING_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/feature_set.h"
#include "similarity/value_similarity.h"

namespace alex::core {

struct BlockingOptions {
  // When false, FeatureSpace::Build scores the full cross product (the
  // paper's literal pre-processing; also the reference for equality tests).
  bool enabled = true;
  // Size-tiered gram selection: every indexed value emits q-grams of ONE
  // length chosen by the value's own length — trigrams up to
  // trigram_value_length, `gram_length`-grams above it. (Short and
  // mid-length values can be borderline Levenshtein matches at edit rates
  // that destroy every 4-gram, e.g. 15 vs 17 chars at distance 7, while
  // long values are where trigram postings explode.) The probe side emits
  // the gram length of every tier whose value-length range intersects
  // [noise_floor * len, len / noise_floor]: no pair outside that length
  // ratio can clear the Levenshtein noise floor, so the counterpart's tier
  // is always among the probed ones. min_gram_token_length is the minimum
  // value length for the gram channel to kick in (shorter values are fully
  // covered by the token/deletion channels).
  size_t gram_length = 4;
  size_t min_gram_token_length = 3;
  size_t trigram_value_length = 18;
  // Candidates whose ONLY collisions are q-gram keys must share at least
  // this many distinct gram keys. Borderline Levenshtein matches between
  // mid-length values share a handful of intact grams; unrelated values
  // that happen to contain one common syllable share exactly one, and they
  // are the bulk of the gram channel's junk. Set to 1 to admit single-gram
  // collisions.
  uint32_t min_gram_matches = 2;
  // Exception to min_gram_matches: when BOTH values are at most this long,
  // a single shared gram counts double. Short values emit so few grams that
  // a genuine borderline match (e.g. 7 vs 10 chars at edit distance 4) can
  // have exactly one survivor.
  size_t single_gram_value_length = 12;
  // Tokens up to this length additionally emit their deletion variants
  // (every distinct string reachable by up to max_deletion_distance
  // character deletions, SymSpell-style). Two tokens within edit distance d
  // always share a variant when d <= max_deletion_distance: a substitution,
  // indel, or transposition each costs at most one deletion per side. This
  // covers the short-token typo pairs where trigrams fail (e.g. "smith" /
  // "smyth", or the distance-2 "cuglia" / "hugia").
  size_t max_deletion_token_length = 12;
  size_t max_deletion_distance = 2;
  // Incremental maintenance (AddRights): newly ingested rights post into a
  // sorted pending sidecar that probes consult alongside the CSR blocks;
  // the sidecar is merged back into the CSR once it outgrows
  // pending_merge_threshold + postings/8 — the same threshold pattern as
  // FeatureSpace::MaybeCompactArena.
  size_t pending_merge_threshold = 1024;
};

// Appends the block keys of `value` to `*keys`. With `probe_neighbors`
// (query side) the numeric/date bucket keys also cover adjacent buckets so
// that near-equal values falling across a bucket boundary still collide.
// (Human-readable variant, used by tests; the index itself stores hashes.)
void AppendBlockKeys(const PreparedValue& value,
                     const BlockingOptions& options,
                     const sim::SimilarityOptions& sim, bool probe_neighbors,
                     std::vector<std::string>* keys);

// Which key channel a candidate collided on. A candidate's channel bitmask
// bounds the similarity channels that can lift it over θ (see
// SimilarityChannelMask in core/feature_set.h), so the scorer can skip the
// rest.
enum BlockChannel : uint8_t {
  kBlockValue = 1u << 0,     // whole lowered value (equality channels)
  kBlockToken = 1u << 1,     // normalized token
  kBlockGram = 1u << 2,      // q-gram of the whole value
  kBlockDeletion = 1u << 3,  // token deletion variant
  kBlockNumeric = 1u << 4,   // numeric magnitude bucket
  kBlockDate = 1u << 5,      // date bucket
};

// A block key as stored/probed: the FNV hash of its string form plus its
// channel. Hash collisions across distinct keys are harmless — they only
// admit extra candidates (or channel bits), never drop one.
struct TaggedKeyHash {
  uint64_t hash;
  uint8_t channel;
};

// Collisions are tracked per attribute *cell*: a posting records which
// attribute of the right entity exhibited the key, and a probe records which
// left attribute it came from, so the scorer knows exactly which cells of
// the similarity matrix can clear θ. Attributes beyond the cap share the
// last slot — their masks are unioned, which only widens what gets scored.
inline constexpr size_t kCellAttrCap = 8;
inline constexpr size_t kCellCount = kCellAttrCap * kCellAttrCap;

// Reusable scratch for repeated probes: per-token key memo (tokens repeat
// heavily across entities, and deletion-variant expansion is the expensive
// part) plus dense accumulation buffers over the probed side's entities.
// One per worker — not thread-safe, but independent instances may probe the
// same index concurrently. After a probe, holds the candidate list and the
// per-cell channel bitmasks until the next probe on this scratch.
class ProbeScratch {
 public:
  // Candidates of the last probe, sorted ascending: right-entity indexes
  // after BlockingIndex::Probe, left ids after ReverseProbeIndex::Probe.
  const std::vector<uint32_t>& touched() const { return touched_; }
  // 8x8 row-major (left attr, right attr) channel bitmasks for candidate
  // `c`, which must be in touched().
  const uint8_t* cell_channels(uint32_t c) const {
    return cell_channels_.data() + static_cast<size_t>(c) * kCellCount;
  }

 private:
  friend class BlockingIndex;
  friend class ReverseProbeIndex;
  friend void AppendBlockKeyHashes(const PreparedValue&,
                                   const BlockingOptions&,
                                   const sim::SimilarityOptions&, bool,
                                   ProbeScratch*,
                                   std::vector<TaggedKeyHash>*);
  // Sizes the buffers for candidate ids [0, candidates) and clears the
  // previous probe's state.
  void Reset(size_t candidates);
  // One key shared by candidate `c`: `channel` joins the candidate's channel
  // union and cell `cell` (left slot * kCellAttrCap + right slot). A gram
  // key counts double toward min_gram_matches when both values are short:
  // their gram sets are tiny, so one shared gram is already meaningful. The
  // count saturates, so it does not depend on the order keys arrive in.
  void Hit(uint32_t c, uint8_t channel, bool both_short, size_t cell) {
    if (!seen_[c]) {
      seen_[c] = 1;
      touched_.push_back(c);
    }
    union_channels_[c] |= channel;
    if (channel == kBlockGram) {
      const unsigned count = gram_counts_[c] + (both_short ? 2u : 1u);
      gram_counts_[c] = static_cast<uint8_t>(count < 255u ? count : 255u);
    }
    cell_channels_[static_cast<size_t>(c) * kCellCount + cell] |= channel;
  }
  // Sorts the candidates and drops those whose only shared keys are grams,
  // fewer than `min_gram_matches` of them.
  void Finish(uint32_t min_gram_matches);

  std::unordered_map<std::string, std::vector<TaggedKeyHash>> token_memo_;
  std::vector<TaggedKeyHash> keys_;
  std::vector<uint8_t> cell_channels_;  // candidates * kCellCount bytes
  std::vector<uint8_t> seen_;           // per candidate: in touched_?
  std::vector<uint8_t> union_channels_;  // per candidate: OR over cells
  std::vector<uint8_t> gram_counts_;     // per candidate: gram hits
  std::vector<uint32_t> touched_;
};

// Hashed-key variant of AppendBlockKeys; `scratch` memoizes per-token keys.
void AppendBlockKeyHashes(const PreparedValue& value,
                          const BlockingOptions& options,
                          const sim::SimilarityOptions& sim,
                          bool probe_neighbors, ProbeScratch* scratch,
                          std::vector<TaggedKeyHash>* keys);

// The storage behind both block-key indexes: a multimap from key hash to
// 32-bit postings. Postings live in a CSR layout — an open-addressed table
// maps each hash to its contiguous block, sorted within the block — plus a
// sorted pending sidecar of the (hash, posting) entries added since the
// last rebuild. The sidecar is merged back into the CSR once it outgrows
// merge_threshold + postings/8, the same threshold pattern as
// FeatureSpace::MaybeCompactArena. Lookups see CSR and sidecar as one
// multimap, so merge timing never shows in results.
class PostingTable {
 public:
  using Entry = std::pair<uint64_t, uint32_t>;  // (key hash, posting)

  // Replaces the contents with `entries`, sorted by (hash, posting).
  void Assign(const std::vector<Entry>& entries);
  // Adds `fresh`, sorted by (hash, posting), to the sidecar, and merges the
  // sidecar into the CSR when it outgrows the dirt threshold.
  void Add(const std::vector<Entry>& fresh, size_t merge_threshold);

  // Calls fn(posting) for every posting of `hash` that is >= min_posting:
  // the CSR block's, then the sidecar's, each ascending.
  template <typename Fn>
  void ForEach(uint64_t hash, uint32_t min_posting, Fn&& fn) const {
    // Most probe keys have no postings at all; one bit test skips them.
    if (!FilterMaybeContains(hash)) return;
    if (!table_.empty()) {
      size_t slot = hash & table_mask_;
      while (table_[slot].len != 0 && table_[slot].hash != hash) {
        slot = (slot + 1) & table_mask_;
      }
      if (table_[slot].len != 0) {
        const uint32_t* block = postings_.data() + table_[slot].begin;
        const uint32_t* block_end = block + table_[slot].len;
        if (min_posting != 0) {
          block = std::lower_bound(block, block_end, min_posting);
        }
        for (; block != block_end; ++block) fn(*block);
      }
    }
    if (!pending_.empty()) {
      auto it = std::lower_bound(pending_.begin(), pending_.end(),
                                 Entry{hash, min_posting});
      for (; it != pending_.end() && it->first == hash; ++it) fn(it->second);
    }
  }

  bool empty() const { return postings_.empty() && pending_.empty(); }
  // Distinct hashes in the CSR.
  size_t block_count() const { return block_count_; }
  uint64_t size() const { return postings_.size() + pending_.size(); }
  size_t pending_count() const { return pending_.size(); }
  // Sidecar-into-CSR merges performed so far.
  uint64_t merge_count() const { return merge_count_; }

  // Representation-independent hash over the (hash, posting) entry
  // multiset, seeded with `covered` (the number of entities posted):
  // invariant under CSR-vs-sidecar placement and table layout.
  uint64_t Fingerprint(uint64_t covered) const;

 private:
  // Merges the sidecar into the CSR when it outgrows the dirt threshold.
  void MaybeMerge(size_t merge_threshold);
  // A slot maps a block-key hash to its [begin, begin+len) range in
  // postings_. The key hashes are already well mixed (FNV-1a / SplitMix64),
  // so the slot index is just hash & mask. len == 0 marks an empty slot.
  struct Slot {
    uint64_t hash = 0;
    uint32_t begin = 0;
    uint32_t len = 0;
  };
  // One-bit membership filter over every posted key hash (CSR + sidecar):
  // a key whose bit is clear provably has no postings, so the common miss
  // costs one cache-resident bit test instead of a table walk plus a
  // sidecar binary search. False positives just fall through to the normal
  // lookup. Sized ~8 bits per distinct key by Assign; Add extends it in
  // place (merges re-size it).
  void FilterInsert(uint64_t hash) {
    key_filter_[(hash & key_filter_mask_) >> 6] |=
        1ull << (hash & key_filter_mask_ & 63u);
  }
  bool FilterMaybeContains(uint64_t hash) const {
    return (key_filter_[(hash & key_filter_mask_) >> 6] >>
            (hash & key_filter_mask_ & 63u)) &
           1u;
  }
  void ResetFilter(size_t distinct_keys);

  std::vector<Slot> table_;
  uint64_t table_mask_ = 0;
  std::vector<uint64_t> key_filter_ = {0};
  uint64_t key_filter_mask_ = 63;
  std::vector<uint32_t> postings_;
  std::vector<Entry> pending_;
  size_t block_count_ = 0;
  uint64_t merge_count_ = 0;
};

// Inverted index: block-key hash -> sorted list of (right entity, attr)
// postings.
class BlockingIndex {
 public:
  BlockingIndex() = default;
  BlockingIndex(BlockingIndex&&) = default;
  BlockingIndex& operator=(BlockingIndex&&) = default;
  BlockingIndex(const BlockingIndex&) = delete;
  BlockingIndex& operator=(const BlockingIndex&) = delete;

  // With a pool, key extraction is sharded across its workers and the
  // per-chunk sorted runs are merged pairwise in parallel. The final sorted
  // entry sequence — and therefore the postings/table bytes — is identical
  // at any thread count (asserted by the fingerprint test).
  static BlockingIndex Build(const std::vector<PreparedEntity>& rights,
                             const BlockingOptions& options,
                             const sim::SimilarityOptions& sim,
                             ThreadPool* pool = nullptr);

  // Extends the index over rights[first_new..] (rights[0..first_new) must
  // be the entities the index already covers). New postings land in the
  // sorted pending sidecar consulted by every probe; once the sidecar
  // outgrows the dirt threshold it is merged back into the CSR layout.
  // Serial and deterministic: the resulting logical index — and its
  // Fingerprint() — equals a fresh Build() over all rights.
  void AddRights(const std::vector<PreparedEntity>& rights, size_t first_new);

  // Probes the index with every attribute value of `left`, leaving the
  // sorted candidate list in scratch->touched() and the per-cell channel
  // bitmasks behind scratch->cell_channels(). Thread-safe with one
  // ProbeScratch per caller: the index is immutable after Build.
  //
  // `min_right` restricts the probe to right entities with index >=
  // min_right; the result is exactly the full probe's state restricted to
  // those candidates (per-right accumulation is independent). The rebuild
  // baseline of live ingest uses this to score old lefts against the new
  // rights.
  void Probe(const PreparedEntity& left, ProbeScratch* scratch,
             uint32_t min_right) const;
  void Probe(const PreparedEntity& left, ProbeScratch* scratch) const {
    Probe(left, scratch, 0);
  }

  // Appends the sorted, deduplicated indices of every right entity sharing
  // at least one block with `left` to `*out` (cleared first), and the
  // bitmask of shared channels per candidate (the union over its attribute
  // cells) to `*channels` (parallel to `*out`).
  void Candidates(const PreparedEntity& left, ProbeScratch* scratch,
                  std::vector<uint32_t>* out,
                  std::vector<uint8_t>* channels) const;

  // Convenience overload with private scratch, discarding the channels.
  void Candidates(const PreparedEntity& left,
                  std::vector<uint32_t>* out) const;

  bool empty() const { return table_.empty(); }
  size_t block_count() const { return table_.block_count(); }
  uint64_t posting_count() const { return table_.size(); }
  // Entries currently in the pending sidecar (not yet merged into the CSR).
  size_t pending_count() const { return table_.pending_count(); }
  // Number of sidecar-into-CSR merge compactions performed so far.
  uint64_t merge_count() const { return table_.merge_count(); }
  size_t num_rights() const { return num_rights_; }

  // Representation-independent hash over the logical (key hash, posting)
  // entry multiset plus the covered right count: invariant under CSR-vs-
  // pending placement and table layout, so an incrementally grown index
  // fingerprints identically to a fresh Build() over the same rights.
  uint64_t Fingerprint() const { return table_.Fingerprint(num_rights_); }

 private:
  // Postings pack (right_index << 4) | short_value_flag << 3 |
  // min(attr_index, 7); a key's postings are sorted, so by right entity.
  PostingTable table_;
  uint32_t num_rights_ = 0;
  BlockingOptions options_;
  sim::SimilarityOptions sim_;
};

// A candidate pair and the 8x8 (left attr, right attr) cell channel masks
// its probe accumulated (the layout of ProbeScratch::cell_channels), ready
// for FeatureSpace::Grow to score.
struct CandidatePair {
  uint32_t left;   // index into the partition's left_entities()
  uint32_t right;  // index into the right context's entities
  std::array<uint8_t, kCellCount> cells;
};

// The reverse of BlockingIndex::Probe, for live ingest. It indexes the
// PROBE-side keys of left entities — what a forward probe looks up: the
// numeric and date neighbour buckets and every reachable gram tier — one
// posting per (left, attribute, distinct key). Probing it with one right
// entity's INDEX-side entries — exactly what BlockingIndex::AddRights
// posts for that right — accumulates, per left, the same channel union,
// gram count and cell masks that the left's forward probe accumulates for
// that right, and applies the same min_gram_matches rule. So its
// candidates for a new right are exactly the lefts whose forward probe
// reaches the right, with bit-identical cell masks: one reverse probe per
// new right replaces re-probing every old left.
class ReverseProbeIndex {
 public:
  ReverseProbeIndex(const BlockingOptions& options,
                    const sim::SimilarityOptions& sim)
      : options_(options), sim_(sim) {}

  // Posts the probe-side keys of `lefts` under the next left ids:
  // lefts[k] gets id num_lefts() + k. Key extraction is sharded across
  // `pool` as in BlockingIndex::Build. Into an index without postings the
  // entries go straight to the CSR; otherwise they join the pending
  // sidecar, as BlockingIndex::AddRights does.
  void AddLefts(const std::vector<const PreparedEntity*>& lefts,
                ThreadPool* pool = nullptr);

  // Leaves in scratch->touched() the sorted ids of the lefts whose forward
  // probe reaches `right`, and each one's (left attr, right attr) channel
  // masks behind scratch->cell_channels().
  void Probe(const PreparedEntity& right, ProbeScratch* scratch) const;

  size_t num_lefts() const { return num_lefts_; }
  uint64_t merge_count() const { return table_.merge_count(); }

 private:
  // Postings pack (left_id << 7) | channel_bit << 4 | short_value_flag << 3
  // | min(attr_index, 7), where channel_bit is the probe key's BlockChannel
  // as a bit index. A left's attributes from slot 7 on can yield equal
  // postings; each is kept, since the forward probe counts every attribute.
  PostingTable table_;
  uint32_t num_lefts_ = 0;
  BlockingOptions options_;
  sim::SimilarityOptions sim_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_BLOCKING_H_
