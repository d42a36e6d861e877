#include "feedback/aggregator.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <tuple>

namespace alex::feedback {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t Key(uint32_t high, uint32_t low) {
  return uint64_t{high} << 32 | low;
}
uint32_t High(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t Low(uint64_t key) { return static_cast<uint32_t>(key); }

// Marks an entry the overflow eviction removes. No tally has this key: IRI
// ids stay below rdf::IriIndex::kNone.
constexpr uint64_t kEvicted = UINT64_MAX;

size_t SlotOf(uint64_t key, size_t mask) {
  const uint64_t h = key * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

const FeedbackAggregator::Tally* FeedbackAggregator::Shard::Find(
    uint64_t key) const {
  const size_t mask = slots.size() - 1;
  for (size_t s = SlotOf(key, mask); slots[s] != 0; s = (s + 1) & mask) {
    const Entry& entry = entries[slots[s] - 1];
    if (entry.key == key) return &entry.tally;
  }
  return nullptr;
}

FeedbackAggregator::Tally& FeedbackAggregator::Shard::FindOrInsert(
    uint64_t key) {
  const size_t mask = slots.size() - 1;
  size_t s = SlotOf(key, mask);
  for (; slots[s] != 0; s = (s + 1) & mask) {
    Entry& entry = entries[slots[s] - 1];
    if (entry.key == key) return entry.tally;
  }
  entries.push_back(Entry{key, Tally{}});
  if (2 * entries.size() > slots.size()) {
    Reindex();
  } else {
    slots[s] = static_cast<uint32_t>(entries.size());
  }
  return entries.back().tally;
}

void FeedbackAggregator::Shard::Reindex() {
  slots.assign(std::max<size_t>(16, RoundUpPowerOfTwo(2 * entries.size())),
               0);
  const size_t mask = slots.size() - 1;
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t s = SlotOf(entries[i].key, mask);
    while (slots[s] != 0) s = (s + 1) & mask;
    slots[s] = static_cast<uint32_t>(i + 1);
  }
}

FeedbackAggregator::FeedbackAggregator(const AggregatorOptions& options)
    : options_(options) {
  size_t shards = RoundUpPowerOfTwo(std::max<size_t>(1, options.num_shards));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shards - 1;
}

void FeedbackAggregator::AddVote(const linking::Link& link, bool approve) {
  const uint64_t epoch = vote_epoch_.load(std::memory_order_relaxed);
  Shard& shard = *shards_[linking::LinkHash{}(link) & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mu);
  // Interned in a fixed order (argument evaluation order is unspecified).
  const uint32_t left = shard.iris.Intern(link.left);
  Tally& tally = shard.FindOrInsert(Key(left, shard.iris.Intern(link.right)));
  ++(approve ? tally.positive : tally.negative);
  tally.last_vote_epoch = epoch;
  ++shard.votes;
}

void FeedbackAggregator::Rerank(uint32_t first_new) {
  // std::string's operator< compares bytes as unsigned char, the order of
  // linking::Link.
  const auto by_iri = [this](uint32_t a, uint32_t b) {
    return drain_iris_.iri(a) < drain_iris_.iri(b);
  };
  std::vector<uint32_t> fresh(drain_iris_.size() - first_new);
  std::iota(fresh.begin(), fresh.end(), first_new);
  std::sort(fresh.begin(), fresh.end(), by_iri);
  std::vector<uint32_t> merged;
  merged.reserve(drain_iris_.size());
  std::merge(by_rank_.begin(), by_rank_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged), by_iri);
  by_rank_ = std::move(merged);
  rank_.resize(by_rank_.size());
  for (uint32_t r = 0; r < by_rank_.size(); ++r) rank_[by_rank_[r]] = r;
}

std::vector<LinkVerdict> FeedbackAggregator::DrainVerdicts(uint64_t epoch) {
  // An emitted verdict, and a tally that survives the quorum and TTL checks
  // (a candidate for the max_pending overflow eviction). `order` holds the
  // drain-side ids of the link's IRIs (left << 32 | right) until every
  // shard has been walked, then their ranks: the batch and eviction order.
  struct Emitted {
    uint64_t order;
    uint32_t positive;
    uint32_t negative;
    bool approve;
  };
  struct Open {
    uint64_t last_vote_epoch;
    uint64_t order;
    uint32_t shard;
    uint32_t entry;
  };
  std::vector<Emitted> emitted;
  std::vector<Open> open;
  const bool capped = options_.max_pending > 0;

  const auto known = static_cast<uint32_t>(drain_iris_.size());
  uint64_t suppressed = 0;
  uint64_t evicted = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // A vote that arrives during the drain lands in it if its shard has not
    // been walked yet, and in the next drain otherwise: the walk maps the
    // shard's IRIs and leaves its table consistent under one lock hold.
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto id = static_cast<uint32_t>(shard.drain_ids.size());
         id < shard.iris.size(); ++id) {
      shard.drain_ids.push_back(drain_iris_.Intern(shard.iris.iri(id)));
    }
    size_t kept = 0;
    for (size_t i = 0; i < shard.entries.size(); ++i) {
      Entry entry = shard.entries[i];
      Tally& tally = entry.tally;
      const uint64_t ids = Key(shard.drain_ids[High(entry.key)],
                               shard.drain_ids[Low(entry.key)]);
      const uint32_t total = tally.positive + tally.negative;
      const uint32_t fresh_votes = total - tally.votes_at_last_emit;
      bool verdict_set = false;
      bool verdict = false;
      if (total >= static_cast<uint32_t>(options_.quorum) &&
          fresh_votes > 0) {
        const double threshold = options_.majority * total;
        if (tally.positive > threshold) {
          verdict_set = true;
          verdict = true;
        } else if (tally.negative > threshold) {
          verdict_set = true;
          verdict = false;
        }
      }
      if (verdict_set) {
        emitted.push_back(
            Emitted{ids, tally.positive, tally.negative, verdict});
        // The minority never reaches the learner: one verdict carries the
        // majority's evidence, the dissent is filtered out here (§6.3).
        suppressed += verdict ? tally.negative : tally.positive;
        if (options_.reset_after_verdict) continue;
        tally.votes_at_last_emit = total;
      } else if (options_.stale_after_epochs > 0 &&
                 epoch >= tally.last_vote_epoch +
                              options_.stale_after_epochs) {
        // Not quorate (or nothing new since the last emission) and aged
        // out.
        suppressed += total - tally.votes_at_last_emit;
        ++evicted;
        continue;
      } else if (capped) {
        open.push_back(Open{tally.last_vote_epoch, ids, s,
                            static_cast<uint32_t>(kept)});
      }
      shard.entries[kept++] = entry;
    }
    shard.entries.resize(kept);
    shard.Reindex();
  }
  if (drain_iris_.size() > known) Rerank(known);
  const auto rank = [this](uint64_t ids) {
    return Key(rank_[High(ids)], rank_[Low(ids)]);
  };

  // Overflow eviction: down to max_pending, dropping the tallies that went
  // longest without a vote first (ties broken by link order) — the same
  // victims whatever shard or thread count produced them. Votes may have
  // bumped a victim since the walk; its eviction suppresses them too.
  if (capped && open.size() > options_.max_pending) {
    for (Open& tally : open) tally.order = rank(tally.order);
    const auto victims = open.begin() + (open.size() - options_.max_pending);
    std::nth_element(open.begin(), victims, open.end(),
                     [](const Open& a, const Open& b) {
                       return std::tie(a.last_vote_epoch, a.order) <
                              std::tie(b.last_vote_epoch, b.order);
                     });
    std::sort(open.begin(), victims, [](const Open& a, const Open& b) {
      return a.shard < b.shard;
    });
    for (auto it = open.begin(); it != victims;) {
      Shard& shard = *shards_[it->shard];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const uint32_t s = it->shard; it != victims && it->shard == s;
           ++it) {
        Entry& entry = shard.entries[it->entry];
        suppressed += entry.tally.positive + entry.tally.negative -
                      entry.tally.votes_at_last_emit;
        ++evicted;
        entry.key = kEvicted;
      }
      std::erase_if(shard.entries,
                    [](const Entry& entry) { return entry.key == kEvicted; });
      shard.Reindex();
    }
  }

  for (Emitted& verdict : emitted) verdict.order = rank(verdict.order);
  std::sort(emitted.begin(), emitted.end(),
            [](const Emitted& a, const Emitted& b) {
              return a.order < b.order;
            });
  std::vector<LinkVerdict> batch(emitted.size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    batch[i].link.left = drain_iris_.iri(by_rank_[High(emitted[i].order)]);
    batch[i].link.right = drain_iris_.iri(by_rank_[Low(emitted[i].order)]);
    batch[i].approve = emitted[i].approve;
    batch[i].positive = emitted[i].positive;
    batch[i].negative = emitted[i].negative;
  }
  verdicts_emitted_.fetch_add(emitted.size(), std::memory_order_relaxed);
  votes_suppressed_.fetch_add(suppressed, std::memory_order_relaxed);
  tallies_evicted_.fetch_add(evicted, std::memory_order_relaxed);
  // Votes arriving after this drain belong to the next epoch.
  vote_epoch_.store(epoch + 1, std::memory_order_relaxed);
  return batch;
}

FeedbackAggregator::Tally FeedbackAggregator::TallyOf(
    const linking::Link& link) const {
  const Shard& shard = *shards_[linking::LinkHash{}(link) & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t left = shard.iris.Find(link.left);
  const uint32_t right = shard.iris.Find(link.right);
  if (left == rdf::IriIndex::kNone || right == rdf::IriIndex::kNone) {
    return {};
  }
  const Tally* tally = shard.Find(Key(left, right));
  return tally == nullptr ? Tally{} : *tally;
}

int FeedbackAggregator::PositiveVotes(const linking::Link& link) const {
  return static_cast<int>(TallyOf(link).positive);
}

int FeedbackAggregator::NegativeVotes(const linking::Link& link) const {
  return static_cast<int>(TallyOf(link).negative);
}

size_t FeedbackAggregator::pending() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

AggregatorStats FeedbackAggregator::stats() const {
  AggregatorStats out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.votes_recorded += shard->votes;
    out.pending += shard->entries.size();
  }
  out.verdicts_emitted = verdicts_emitted_.load(std::memory_order_relaxed);
  out.votes_suppressed = votes_suppressed_.load(std::memory_order_relaxed);
  out.tallies_evicted = tallies_evicted_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace alex::feedback
