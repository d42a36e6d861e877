#include "core/blocking.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string_view>
#include <unordered_set>

#include "common/logging.h"
#include "similarity/value_similarity.h"

namespace alex::core {
namespace {

// Key namespaces, kept to one tag byte + '\x01' so keys from different
// channels can never collide.
constexpr char kValueTag = 'v';
constexpr char kTokenTag = 't';
constexpr char kGramTag = 'g';
constexpr char kDeletionTag = 'd';
constexpr char kNumericTag = 'n';
constexpr char kDateTag = 'D';

std::string MakeKey(char tag, std::string_view body) {
  std::string key;
  key.reserve(body.size() + 2);
  key.push_back(tag);
  key.push_back('\x01');
  key.append(body);
  return key;
}

// FNV-1a for string-bodied keys, seeded with the channel tag.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t HashKey(char tag, std::string_view body) {
  uint64_t h = kFnvOffset;
  h = (h ^ static_cast<uint8_t>(tag)) * kFnvPrime;
  for (char c : body) h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
  return h;
}

// SplitMix64 for integer-bodied keys (numeric/date buckets).
uint64_t MixInt(char tag, uint64_t x) {
  x += 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(tag) * kFnvPrime;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Size-tiered gram selection: every indexed value emits q-grams of ONE
// length chosen by the value's own length — trigrams up to
// kTrigramValueLength, kGramLength-grams above it. (Short and mid-length
// values can be borderline Levenshtein matches at edit rates that destroy
// every 4-gram, e.g. 15 vs 17 chars at distance 7, while long values are
// where trigram postings explode.) The probe side emits the gram length of
// every tier whose value-length range intersects
// [noise_floor * len, len / noise_floor]: no pair outside that length ratio
// can clear the Levenshtein noise floor, so the counterpart's tier is always
// among the probed ones. kMinGramTokenLength is the minimum value length for
// the gram channel to kick in (shorter values are fully covered by the
// token/deletion channels).
constexpr size_t kGramLength = 4;
constexpr size_t kMinGramTokenLength = 3;
constexpr size_t kTrigramValueLength = 18;
// Exception to BlockingOptions::min_gram_matches: when BOTH values are at
// most this long, a single shared gram counts double. Short values emit so
// few grams that a genuine borderline match (e.g. 7 vs 10 chars at edit
// distance 4) can have exactly one survivor.
constexpr size_t kSingleGramValueLength = 12;
// Tokens up to this length additionally emit their deletion variants
// (every distinct string reachable by up to kMaxDeletionDistance character
// deletions, SymSpell-style). Two tokens within edit distance d always
// share a variant when d <= kMaxDeletionDistance: a substitution, indel, or
// transposition each costs at most one deletion per side. This covers the
// short-token typo pairs where trigrams fail (e.g. "smith" / "smyth", or
// the distance-2 "cuglia" / "hugia").
constexpr size_t kMaxDeletionTokenLength = 12;
constexpr size_t kMaxDeletionDistance = 2;

// Logarithmic magnitude bucket: values whose NumericSimilarity can be
// positive (|a-b| <= tolerance * max(|a|, |b|, 1)) land at most two buckets
// apart, so the query probes ±2.
int64_t NumericBucket(double v) {
  double magnitude = std::max(std::fabs(v), 1.0);
  return static_cast<int64_t>(
      std::floor(std::log(magnitude) / std::log1p(sim::kNumericTolerance)));
}

// Shared channel walk behind both the human-readable (string) and hashed
// key emitters: calls `emit(tag, body)` for every string-bodied key and
// `emit_int(tag, negative, bucket)` for numeric/date bucket keys.
template <typename EmitStr, typename EmitInt>
void ForEachValueKey(const PreparedValue& value, bool probe_neighbors,
                     EmitStr&& emit, EmitInt&& emit_int) {
  // Exact-match catch-all (covers booleans, date-vs-string equality, and
  // values whose normalization leaves no tokens, e.g. empty strings).
  emit(kValueTag, std::string_view(value.lowered));
  // Size-tiered q-grams of the WHOLE lowered value (not per token): the
  // Levenshtein similarity channel compares whole values, so near-threshold
  // matches can share only substrings that straddle token boundaries. Each
  // INDEXED value emits exactly one gram family, chosen by its own length —
  // short and mid values need trigrams to survive borderline edit rates
  // (e.g. 7 vs 10 chars at distance 4 destroys every 4-gram), long values
  // afford the more selective kGramLength-grams, and one family per value
  // keeps the posting lists small. The PROBE side emits the gram length of
  // every tier a Levenshtein-matchable counterpart could be indexed under:
  // raw similarity is at most min_len/max_len, so clearing the noise floor
  // requires the counterpart's length in [floor * len, len / floor].
  const size_t len = value.lowered.size();
  if (len >= kMinGramTokenLength) {
    auto emit_grams = [&](size_t q) {
      if (len < q) return;
      for (size_t i = 0; i + q <= len; ++i) {
        emit(kGramTag, std::string_view(value.lowered).substr(i, q));
      }
    };
    constexpr double tier_bound = static_cast<double>(kTrigramValueLength);
    if (!probe_neighbors) {
      emit_grams(len <= kTrigramValueLength ? 3 : kGramLength);
    } else {
      constexpr double floor = sim::kStringNoiseFloor;
      const double lo = floor * static_cast<double>(len);
      const double hi = static_cast<double>(len) / floor;
      if (lo <= tier_bound) emit_grams(3);
      if (hi > tier_bound) emit_grams(kGramLength);
    }
  }
  if (value.has_numeric) {
    const bool negative = value.numeric < -1.0;
    const int64_t bucket = NumericBucket(value.numeric);
    if (!probe_neighbors) {
      emit_int(kNumericTag, negative, bucket);
    } else {
      for (int64_t b = bucket - 2; b <= bucket + 2; ++b) {
        if (b >= 0) emit_int(kNumericTag, negative, b);
      }
      // Near the ±1 magnitude boundary, near-equal values can sit on
      // opposite sides of the sign split; cover the other sign's smallest
      // buckets.
      if (bucket <= 2) {
        for (int64_t b = 0; b <= 2; ++b) emit_int(kNumericTag, !negative, b);
      }
    }
  }
  if (!value.is_iri && value.type == rdf::LiteralType::kDate) {
    const int64_t bucket = static_cast<int64_t>(std::floor(
        static_cast<double>(value.date_days) / sim::kDateScaleDays));
    const int64_t radius = probe_neighbors ? 1 : 0;
    for (int64_t b = bucket - radius; b <= bucket + radius; ++b) {
      emit_int(kDateTag, false, b);
    }
  }
}

// Walks every distinct string reachable from `token` by up to
// `max_distance` single-character deletions (the token itself included).
// Empty cores are skipped: a pair that could only collide on the empty
// variant has edit distance >= max(len_a, len_b), far below any θ of
// interest, and the empty block would join every short token together.
template <typename Emit>
void ForEachDeletionVariant(const std::string& token, size_t max_distance,
                            Emit&& emit) {
  emit(token);
  std::vector<std::string> frontier{token};
  std::unordered_set<std::string> seen{token};
  for (size_t depth = 0; depth < max_distance; ++depth) {
    std::vector<std::string> next;
    for (const std::string& s : frontier) {
      if (s.size() <= 1) continue;
      for (size_t i = 0; i < s.size(); ++i) {
        std::string variant;
        variant.reserve(s.size() - 1);
        variant.append(s, 0, i);
        variant.append(s, i + 1, std::string::npos);
        if (seen.insert(variant).second) {
          emit(variant);
          next.push_back(std::move(variant));
        }
      }
    }
    frontier = std::move(next);
  }
}

uint64_t MixIntKey(char tag, bool negative, int64_t bucket) {
  return MixInt(tag, static_cast<uint64_t>(bucket) * 2 +
                         static_cast<uint64_t>(negative));
}

// Posting layout: (right_index << 4) | short_flag << 3 | min(attr_index, 7).
// The short flag marks values no longer than kSingleGramValueLength; a
// gram collision between two short values counts double toward
// min_gram_matches (see Probe).
constexpr uint32_t kPostingShortBit = 1u << 3;

uint8_t ChannelOf(char tag) {
  switch (tag) {
    case kValueTag:
      return kBlockValue;
    case kTokenTag:
      return kBlockToken;
    case kGramTag:
      return kBlockGram;
    case kDeletionTag:
      return kBlockDeletion;
    case kNumericTag:
      return kBlockNumeric;
    default:
      return kBlockDate;
  }
}

// Sorts one probing value's keys by (hash, channel) and drops repeats, so
// each block is walked once per probing value.
void SortUniqueProbeKeys(std::vector<TaggedKeyHash>* keys) {
  std::sort(keys->begin(), keys->end(),
            [](const TaggedKeyHash& a, const TaggedKeyHash& b) {
              return a.hash != b.hash ? a.hash < b.hash
                                      : a.channel < b.channel;
            });
  keys->erase(std::unique(keys->begin(), keys->end(),
                          [](const TaggedKeyHash& a, const TaggedKeyHash& b) {
                            return a.hash == b.hash && a.channel == b.channel;
                          }),
              keys->end());
}

using Entry = PostingTable::Entry;

// Appends the (key hash, packed posting) entries of right entity `r` —
// shared by the chunked Build() extraction and the AddRights() delta path
// so both derive the exact same entry multiset per entity.
void AppendEntityEntries(const PreparedEntity& right, uint32_t r,
                         ProbeScratch* scratch,
                         std::vector<TaggedKeyHash>* keys,
                         std::vector<Entry>* entries) {
  for (size_t a = 0; a < right.attributes.size(); ++a) {
    const uint32_t attr_slot =
        static_cast<uint32_t>(a < kCellAttrCap - 1 ? a : kCellAttrCap - 1);
    const bool is_short =
        right.attributes[a].value.lowered.size() <= kSingleGramValueLength;
    const uint32_t posting =
        (r << 4) | (is_short ? kPostingShortBit : 0u) | attr_slot;
    keys->clear();
    AppendBlockKeyHashes(right.attributes[a].value,
                         /*probe_neighbors=*/false, scratch, keys);
    // The same key can repeat within one value (duplicate grams); post it
    // once.
    std::sort(keys->begin(), keys->end(),
              [](const TaggedKeyHash& a, const TaggedKeyHash& b) {
                return a.hash < b.hash;
              });
    auto end = std::unique(keys->begin(), keys->end(),
                           [](const TaggedKeyHash& a, const TaggedKeyHash& b) {
                             return a.hash == b.hash;
                           });
    for (auto it = keys->begin(); it != end; ++it) {
      entries->emplace_back(it->hash, posting);
    }
  }
}

// Extracts the entries of items [0, n) through append(i, scratch, keys,
// entries) and returns them sorted by (hash, posting). With a pool the items
// are split into chunks: each keeps its own scratch (the token memo carries
// across items within a chunk — real data sets repeat tokens constantly)
// and sorts its own run, and the runs are merged pairwise in parallel.
// std::merge is stable and the entry multiset does not depend on the
// chunking, so the result is identical at any thread count.
template <typename Append>
std::vector<Entry> SortedEntries(size_t n, ThreadPool* pool,
                                 const Append& append) {
  size_t num_chunks = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    num_chunks = std::min<size_t>(
        std::max<size_t>(n, 1),
        static_cast<size_t>(pool->num_threads()) * 4);
  }
  const size_t chunk_size = n == 0 ? 1 : (n + num_chunks - 1) / num_chunks;
  std::vector<std::pair<size_t, size_t>> chunks;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    chunks.emplace_back(begin, std::min(n, begin + chunk_size));
  }
  std::vector<std::vector<Entry>> runs(chunks.size());

  auto extract_chunk = [&](size_t c) {
    std::vector<Entry>& entries = runs[c];
    ProbeScratch scratch;
    std::vector<TaggedKeyHash> keys;
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      append(i, &scratch, &keys, &entries);
    }
    std::sort(entries.begin(), entries.end());
  };

  const bool parallel = pool != nullptr && chunks.size() > 1;
  if (parallel) {
    pool->ParallelFor(chunks.size(), 1, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) extract_chunk(c);
    });
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) extract_chunk(c);
  }

  while (runs.size() > 1) {
    std::vector<std::vector<Entry>> merged((runs.size() + 1) / 2);
    auto merge_pair = [&](size_t m) {
      if (2 * m + 1 < runs.size()) {
        std::vector<Entry>& a = runs[2 * m];
        std::vector<Entry>& b = runs[2 * m + 1];
        merged[m].reserve(a.size() + b.size());
        std::merge(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(merged[m]));
      } else {
        merged[m] = std::move(runs[2 * m]);
      }
    };
    if (parallel && merged.size() > 1) {
      pool->ParallelFor(merged.size(), 1, [&](size_t begin, size_t end) {
        for (size_t m = begin; m < end; ++m) merge_pair(m);
      });
    } else {
      for (size_t m = 0; m < merged.size(); ++m) merge_pair(m);
    }
    runs = std::move(merged);
  }
  return runs.empty() ? std::vector<Entry>{} : std::move(runs.front());
}

// Reverse-index posting layout (see ReverseProbeIndex): the left id above
// 7 bits of channel bit index, short flag and attribute slot.
constexpr uint32_t kLeftIdShift = 7;
constexpr uint32_t kMaxLeftIds = 1u << (32 - kLeftIdShift);

// Appends the reverse-index entries of left `left_id`: per attribute, its
// probe-side keys deduplicated by (hash, channel) exactly as
// BlockingIndex::Probe deduplicates them.
void AppendLeftEntries(const PreparedEntity& left, uint32_t left_id,
                       ProbeScratch* scratch,
                       std::vector<TaggedKeyHash>* keys,
                       std::vector<Entry>* entries) {
  for (size_t a = 0; a < left.attributes.size(); ++a) {
    const uint32_t attr_slot =
        static_cast<uint32_t>(a < kCellAttrCap - 1 ? a : kCellAttrCap - 1);
    const bool is_short =
        left.attributes[a].value.lowered.size() <= kSingleGramValueLength;
    keys->clear();
    AppendBlockKeyHashes(left.attributes[a].value,
                         /*probe_neighbors=*/true, scratch, keys);
    SortUniqueProbeKeys(keys);
    for (const TaggedKeyHash& key : *keys) {
      const uint32_t channel_bit =
          static_cast<uint32_t>(std::countr_zero(key.channel));
      entries->emplace_back(
          key.hash, (left_id << kLeftIdShift) | (channel_bit << 4) |
                        (is_short ? kPostingShortBit : 0u) | attr_slot);
    }
  }
}

}  // namespace

void AppendBlockKeys(const PreparedValue& value, bool probe_neighbors,
                     std::vector<std::string>* keys) {
  ForEachValueKey(
      value, probe_neighbors,
      [keys](char tag, std::string_view body) {
        keys->push_back(MakeKey(tag, body));
      },
      [keys](char tag, bool negative, int64_t bucket) {
        std::string body;
        body.push_back(negative ? '-' : '+');
        body += std::to_string(bucket);
        keys->push_back(MakeKey(tag, body));
      });
  for (const std::string& token : value.tokens) {
    keys->push_back(MakeKey(kTokenTag, token));
    if (token.size() <= kMaxDeletionTokenLength) {
      ForEachDeletionVariant(token, kMaxDeletionDistance,
                             [keys](const std::string& variant) {
                               keys->push_back(
                                   MakeKey(kDeletionTag, variant));
                             });
    }
  }
}

void AppendBlockKeyHashes(const PreparedValue& value, bool probe_neighbors,
                          ProbeScratch* scratch,
                          std::vector<TaggedKeyHash>* keys) {
  ForEachValueKey(
      value, probe_neighbors,
      [keys](char tag, std::string_view body) {
        keys->push_back({HashKey(tag, body), ChannelOf(tag)});
      },
      [keys](char tag, bool negative, int64_t bucket) {
        keys->push_back({MixIntKey(tag, negative, bucket), ChannelOf(tag)});
      });
  // Token and deletion-variant keys never depend on probe_neighbors, so
  // they are memoized per token: the deletion-variant expansion is the
  // expensive part of key generation, and real data sets repeat tokens
  // across entities constantly.
  for (const std::string& token : value.tokens) {
    auto [it, inserted] = scratch->token_memo_.try_emplace(token);
    if (inserted) {
      std::vector<TaggedKeyHash>& memo = it->second;
      memo.push_back({HashKey(kTokenTag, token), kBlockToken});
      if (token.size() <= kMaxDeletionTokenLength) {
        ForEachDeletionVariant(token, kMaxDeletionDistance,
                               [&memo](const std::string& variant) {
                                 memo.push_back(
                                     {HashKey(kDeletionTag, variant),
                                      kBlockDeletion});
                               });
      }
    }
    keys->insert(keys->end(), it->second.begin(), it->second.end());
  }
}

BlockingIndex BlockingIndex::Build(const std::vector<PreparedEntity>& rights,
                                   const BlockingOptions& options,
                                   ThreadPool* pool) {
  BlockingIndex index;
  index.options_ = options;
  index.num_rights_ = static_cast<uint32_t>(rights.size());
  std::vector<Entry> entries = SortedEntries(
      rights.size(), pool,
      [&](size_t r, ProbeScratch* scratch, std::vector<TaggedKeyHash>* keys,
          std::vector<Entry>* out) {
        AppendEntityEntries(rights[r], static_cast<uint32_t>(r), scratch,
                            keys, out);
      });
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  index.table_.Assign(entries);
  return index;
}

void BlockingIndex::AddRights(const std::vector<PreparedEntity>& rights,
                              size_t first_new) {
  num_rights_ = static_cast<uint32_t>(rights.size());
  if (first_new >= rights.size()) return;
  // Serial extraction: ingest deltas are small by construction, and a
  // fixed extraction order keeps the grown index bit-identical at any
  // engine thread count.
  ProbeScratch scratch;
  std::vector<TaggedKeyHash> keys;
  std::vector<Entry> fresh;
  for (size_t r = first_new; r < rights.size(); ++r) {
    AppendEntityEntries(rights[r], static_cast<uint32_t>(r), &scratch, &keys,
                        &fresh);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  // New rights have indices disjoint from everything already posted (CSR
  // and sidecar alike), so adding them cannot create duplicates.
  table_.Add(fresh, options_.pending_merge_threshold);
}

void PostingTable::ResetFilter(size_t distinct_keys) {
  size_t bits = 512;
  while (bits < distinct_keys * 8) bits <<= 1;
  key_filter_.assign(bits / 64, 0);
  key_filter_mask_ = bits - 1;
}

void PostingTable::Assign(const std::vector<Entry>& entries) {
  // CSR layout: group by hash, postings sorted within each block (the
  // entries are sorted by (hash, posting)).
  postings_.clear();
  postings_.reserve(entries.size());
  size_t distinct = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first) ++distinct;
  }
  block_count_ = distinct;
  ResetFilter(distinct);
  for (const Entry& entry : entries) FilterInsert(entry.first);
  size_t table_size = 16;
  while (table_size < distinct * 2) table_size <<= 1;
  table_.assign(table_size, Slot{});
  table_mask_ = table_size - 1;
  for (size_t i = 0; i < entries.size();) {
    size_t j = i;
    while (j < entries.size() && entries[j].first == entries[i].first) {
      postings_.push_back(entries[j].second);
      ++j;
    }
    size_t slot = entries[i].first & table_mask_;
    while (table_[slot].len != 0) {
      slot = (slot + 1) & table_mask_;
    }
    table_[slot] = Slot{entries[i].first, static_cast<uint32_t>(i),
                        static_cast<uint32_t>(j - i)};
    i = j;
  }
}

void PostingTable::Add(const std::vector<Entry>& fresh,
                       size_t merge_threshold) {
  const size_t old_size = pending_.size();
  pending_.insert(pending_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(pending_.begin(), pending_.begin() + old_size,
                     pending_.end());
  // Keep the key filter covering the sidecar. Entry count over-estimates
  // distinct keys, so the load check is conservative; a merge rebuilds the
  // filter exactly (Assign).
  if ((block_count_ + pending_.size()) * 8 > key_filter_mask_ + 1) {
    ResetFilter(block_count_ + pending_.size());
    for (const Slot& slot : table_) {
      if (slot.len != 0) FilterInsert(slot.hash);
    }
    for (const Entry& entry : pending_) FilterInsert(entry.first);
  } else {
    for (const Entry& entry : fresh) FilterInsert(entry.first);
  }
  MaybeMerge(merge_threshold);
}

void PostingTable::MaybeMerge(size_t merge_threshold) {
  if (pending_.empty()) return;
  if (pending_.size() <= merge_threshold + postings_.size() / 8) return;
  // Recover the globally sorted entry sequence underlying the CSR without
  // sorting: block begin offsets partition postings_ in ascending hash
  // order (Assign assigns them sequentially over the hash-sorted input), so
  // scattering each block to its own begin offset reconstructs the
  // sequence in one pass.
  std::vector<Entry> base(postings_.size());
  for (const Slot& slot : table_) {
    for (uint32_t k = 0; k < slot.len; ++k) {
      base[slot.begin + k] = Entry(slot.hash, postings_[slot.begin + k]);
    }
  }
  std::vector<Entry> merged;
  merged.reserve(base.size() + pending_.size());
  std::merge(base.begin(), base.end(), pending_.begin(), pending_.end(),
             std::back_inserter(merged));
  pending_.clear();
  Assign(merged);
  ++merge_count_;
}

uint64_t PostingTable::Fingerprint(uint64_t covered) const {
  // Commutative sum over per-entry mixes: each (key hash, posting) pair
  // contributes the same term whether it lives in a CSR block or in the
  // pending sidecar, and the table layout never enters, so equal
  // fingerprints mean equal logical multisets (modulo hash collisions)
  // regardless of how the table was grown.
  uint64_t sum = 0;
  uint64_t count = 0;
  auto add = [&](uint64_t hash, uint32_t posting) {
    sum += MixInt('f', hash ^ MixInt('p', posting));
    ++count;
  };
  for (const Slot& slot : table_) {
    for (uint32_t k = 0; k < slot.len; ++k) {
      add(slot.hash, postings_[slot.begin + k]);
    }
  }
  for (const Entry& entry : pending_) add(entry.first, entry.second);
  auto combine = [](uint64_t h, uint64_t v) {
    h ^= MixInt('f', v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t h = combine(kFnvOffset, covered);
  h = combine(h, count);
  h = combine(h, sum);
  return h;
}

void ProbeScratch::Reset(size_t candidates) {
  // Buffer sizes only change when the scratch first meets an index (or a
  // differently-sized one), so the steady state clears just the touched
  // cells.
  const size_t want_cells = candidates * kCellCount;
  if (seen_.size() != candidates || cell_channels_.size() != want_cells) {
    seen_.assign(candidates, 0);
    union_channels_.assign(candidates, 0);
    gram_counts_.assign(candidates, 0);
    cell_channels_.assign(want_cells, 0);
  } else {
    for (uint32_t c : touched_) {
      seen_[c] = 0;
      union_channels_[c] = 0;
      gram_counts_[c] = 0;
      std::memset(&cell_channels_[static_cast<size_t>(c) * kCellCount], 0,
                  kCellCount);
    }
  }
  touched_.clear();
}

void ProbeScratch::Finish(uint32_t min_gram_matches) {
  std::sort(touched_.begin(), touched_.end());
  // Gram-only candidates below the collision threshold are dropped (and
  // their state cleared now — the next Reset only walks touched_).
  if (min_gram_matches <= 1) return;
  auto out_it = touched_.begin();
  for (uint32_t c : touched_) {
    const bool keep = (union_channels_[c] & ~kBlockGram) != 0 ||
                      gram_counts_[c] >= min_gram_matches;
    if (keep) {
      *out_it++ = c;
    } else {
      seen_[c] = 0;
      union_channels_[c] = 0;
      gram_counts_[c] = 0;
      std::memset(&cell_channels_[static_cast<size_t>(c) * kCellCount], 0,
                  kCellCount);
    }
  }
  touched_.erase(out_it, touched_.end());
}

void BlockingIndex::Probe(const PreparedEntity& left, ProbeScratch* scratch,
                          uint32_t min_right) const {
  scratch->Reset(num_rights_);
  if (table_.empty()) return;
  // Postings pack the right index in their high bits, so filtering a sorted
  // block (or sidecar range) to rights >= min_right is one lower_bound.
  const uint32_t min_posting = min_right << 4;

  std::vector<TaggedKeyHash>& keys = scratch->keys_;
  for (size_t a = 0; a < left.attributes.size(); ++a) {
    const size_t attr_slot = a < kCellAttrCap - 1 ? a : kCellAttrCap - 1;
    const bool left_is_short =
        left.attributes[a].value.lowered.size() <= kSingleGramValueLength;
    keys.clear();
    AppendBlockKeyHashes(left.attributes[a].value,
                         /*probe_neighbors=*/true, scratch, &keys);
    SortUniqueProbeKeys(&keys);
    // Dense per-cell accumulation: O(postings touched), no string compares.
    for (const TaggedKeyHash& key : keys) {
      table_.ForEach(key.hash, min_posting, [&](uint32_t posting) {
        scratch->Hit(posting >> 4, key.channel,
                     left_is_short && (posting & kPostingShortBit) != 0,
                     attr_slot * kCellAttrCap + (posting & 7u));
      });
    }
  }
  scratch->Finish(options_.min_gram_matches);
}

void BlockingIndex::Candidates(const PreparedEntity& left,
                               ProbeScratch* scratch,
                               std::vector<uint32_t>* out,
                               std::vector<uint8_t>* channels) const {
  Probe(left, scratch);
  out->clear();
  channels->clear();
  out->reserve(scratch->touched_.size());
  channels->reserve(scratch->touched_.size());
  for (uint32_t r : scratch->touched_) {
    const uint8_t* cells = scratch->cell_channels(r);
    uint8_t mask = 0;
    for (size_t c = 0; c < kCellCount; ++c) mask |= cells[c];
    out->push_back(r);
    channels->push_back(mask);
  }
}

void BlockingIndex::Candidates(const PreparedEntity& left,
                               std::vector<uint32_t>* out) const {
  ProbeScratch scratch;
  std::vector<uint8_t> channels;
  Candidates(left, &scratch, out, &channels);
}

void ReverseProbeIndex::AddLefts(
    const std::vector<const PreparedEntity*>& lefts, ThreadPool* pool) {
  const uint32_t first_id = num_lefts_;
  ALEX_CHECK(lefts.size() <= kMaxLeftIds - first_id)
      << "reverse-probe left ids overflow " << (32 - kLeftIdShift)
      << " bits";
  std::vector<Entry> entries = SortedEntries(
      lefts.size(), pool,
      [&](size_t k, ProbeScratch* scratch, std::vector<TaggedKeyHash>* keys,
          std::vector<Entry>* out) {
        AppendLeftEntries(*lefts[k], first_id + static_cast<uint32_t>(k),
                          scratch, keys, out);
      });
  num_lefts_ += static_cast<uint32_t>(lefts.size());
  if (table_.empty()) {
    table_.Assign(entries);
  } else {
    table_.Add(entries, options_.pending_merge_threshold);
  }
}

void ReverseProbeIndex::Probe(const PreparedEntity& right,
                              ProbeScratch* scratch) const {
  scratch->Reset(num_lefts_);
  if (table_.empty()) return;
  // The right's entries exactly as BlockingIndex::AddRights posts them,
  // under right index 0: what matters here is each posting's short flag
  // and attribute slot, and deduplicating by (hash, posting) merges the
  // attributes from slot 7 on just as the right index does.
  std::vector<Entry> entries;
  AppendEntityEntries(right, 0, scratch, &scratch->keys_, &entries);
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  for (const auto& [hash, right_posting] : entries) {
    table_.ForEach(hash, 0, [&](uint32_t left_posting) {
      scratch->Hit(left_posting >> kLeftIdShift,
                   static_cast<uint8_t>(1u << ((left_posting >> 4) & 7u)),
                   (left_posting & right_posting & kPostingShortBit) != 0,
                   (left_posting & 7u) * kCellAttrCap + (right_posting & 7u));
    });
  }
  scratch->Finish(options_.min_gram_matches);
}

}  // namespace alex::core
