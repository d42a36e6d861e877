// Sharded multi-user feedback aggregation.
//
// The paper assumes a service provider collecting feedback "from many users
// over a large number of links" (§7.2, batch mode) and notes that feedback
// could be refined "so that ALEX uses only high quality feedback obtained
// from a large number of users (e.g., using techniques from [16])" (§6.3).
// At provider scale that feedback arrives as a high-rate, unordered vote
// stream from many serving threads at once, so the aggregator is built as a
// sharded concurrent accumulator:
//
//   * AddVote is the hot path: LinkHash picks one of num_shards shards, and
//     under the shard's own std::mutex the vote interns the link's two IRIs
//     into the shard's rdf::IriIndex and bumps the tally keyed by the two
//     ids (left id << 32 | right id) in a flat open-addressing table. The
//     shard also counts the vote, so a vote writes nothing that another
//     shard's writers touch (shards are cache-line aligned).
//   * No verdict is computed per vote. Quorum evaluation is deferred to
//     DrainVerdicts(epoch), called once at every episode/epoch boundary:
//     every tally that reached the quorum with a strict majority emits one
//     LinkVerdict, and the batch is returned sorted by (left, right) IRI in
//     std::string byte order — a deterministic order, whatever arrival
//     order or thread count produced the votes. The drain interns each
//     shard's new IRIs into one drain-side table, keeps every IRI's rank in
//     byte order over all of them (re-ranking by a merge only when new IRIs
//     arrived), sorts the verdicts by (left rank, right rank) integers, and
//     builds strings only for the verdicts it emits. A tally is keyed by
//     its link's two IRIs and keeps no score, so a verdict's link carries
//     none (Link's default 1.0): score is not part of link identity, and
//     votes on one link under different scores share one tally.
//
// Because verdicts depend only on the per-link vote MULTISET at drain time
// (never on per-vote arrival order), the drained batch is bitwise-identical
// for any interleaving of the same votes — the property the vote-stream
// identity gates in tests/feedback/aggregator_test.cc assert at 1/2/4
// threads.
//
// Tallies that never become quorate (ties, links nobody re-votes on) would
// otherwise accumulate forever; DrainVerdicts evicts tallies that went
// stale_after_epochs without a new vote and, when the pending population
// still exceeds max_pending, evicts the oldest (then IRI-smallest) tallies
// deterministically down to the cap. Those bound the tallies (32 bytes
// each), not the IRIs: interned IRIs are never dropped, as in the serving
// link store, so IRI memory grows with the distinct IRIs voted on, each
// held once per shard it reached plus once on the drain side.
//
// Usage (one epoch):
//   FeedbackAggregator agg(options);
//   ... many threads: agg.AddVote(link, user_says_yes) ...
//   for (const LinkVerdict& v : agg.DrainVerdicts(epoch)) {
//     engine.ApplyLinkFeedback(v.link, v.approve);
//   }
#ifndef ALEX_FEEDBACK_AGGREGATOR_H_
#define ALEX_FEEDBACK_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linking/link.h"
#include "rdf/iri_index.h"

namespace alex::feedback {

struct AggregatorOptions {
  // Votes required on a link before a verdict can be emitted.
  int quorum = 3;
  // Fraction of votes that must agree (strictly greater than). 0.5 =
  // simple majority.
  double majority = 0.5;
  // After a verdict is drained, the link's tally resets (true) or keeps
  // accumulating so later votes refine the same tally (false). With false,
  // a link re-emits at a later drain only if new votes arrived since.
  bool reset_after_verdict = true;
  // Number of tally shards; rounded up to a power of two. 1 is the
  // single-lock baseline the differential tests and bench_gates compare
  // the sharded default against.
  size_t num_shards = 16;
  // A tally with no new votes for this many drains is evicted as stale
  // (its votes are counted as suppressed). 0 disables the TTL.
  uint64_t stale_after_epochs = 16;
  // Hard cap on open tallies after a drain; 0 = unbounded. When exceeded,
  // tallies are evicted oldest-last-vote-epoch first (ties by ascending
  // link IRIs) until the cap holds. It bounds the tallies only: the IRIs
  // of evicted tallies stay interned (see the header comment).
  size_t max_pending = 0;
};

// One aggregated verdict, with the tally that produced it. `link` holds
// the two IRIs; its score is Link's default 1.0, whatever scores the votes
// carried (score is not part of link identity).
struct LinkVerdict {
  linking::Link link;
  bool approve = false;
  uint32_t positive = 0;
  uint32_t negative = 0;
};

// Point-in-time counters (exact when no votes are in flight).
struct AggregatorStats {
  uint64_t votes_recorded = 0;
  uint64_t verdicts_emitted = 0;
  // Votes that never reached the learner: minority votes inside emitted
  // verdicts plus every vote of an evicted tally.
  uint64_t votes_suppressed = 0;
  uint64_t tallies_evicted = 0;
  size_t pending = 0;
};

class FeedbackAggregator {
 public:
  explicit FeedbackAggregator(const AggregatorOptions& options = {});

  FeedbackAggregator(const FeedbackAggregator&) = delete;
  FeedbackAggregator& operator=(const FeedbackAggregator&) = delete;

  // Records one user's vote on `link`. Thread-safe; only the owning shard
  // is touched. Verdicts are NOT computed here — call DrainVerdicts at the
  // epoch boundary.
  void AddVote(const linking::Link& link, bool approve);

  // Evaluates every open tally against the quorum/majority rule and
  // returns the epoch's verdict batch, sorted by (left, right) IRI.
  // Quorate tallies reset (or are marked emitted when reset_after_verdict
  // is false); stale tallies and overflow beyond max_pending are evicted.
  // `epoch` must be non-decreasing across calls, and drains must not
  // overlap. AddVote may run concurrently (the serving loop's streams keep
  // voting): a vote cast during a drain counts in it if its shard was not
  // walked yet, else in the next one. When the vote threads join before
  // the drain, the batch is a pure function of the per-link vote
  // multisets.
  std::vector<LinkVerdict> DrainVerdicts(uint64_t epoch);

  // Current tally for a link (0 if unknown). Test/diagnostic accessors.
  int PositiveVotes(const linking::Link& link) const;
  int NegativeVotes(const linking::Link& link) const;

  // Number of links with open (un-emitted) tallies.
  size_t pending() const;

  // Verdicts emitted so far.
  uint64_t verdicts_emitted() const {
    return verdicts_emitted_.load(std::memory_order_relaxed);
  }

  AggregatorStats stats() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Tally {
    uint32_t positive = 0;
    uint32_t negative = 0;
    // Votes in the tally when it last emitted (reset_after_verdict=false
    // re-emits only after new votes arrive).
    uint32_t votes_at_last_emit = 0;
    // Epoch of the most recent vote (as of the last drain that saw it; new
    // votes stamp the epoch the next drain will run under).
    uint64_t last_vote_epoch = 0;
  };

  // One link's open tally; `key` is left id << 32 | right id in the
  // shard's IRI table.
  struct Entry {
    uint64_t key;
    Tally tally;
  };

  // alignas: the writers of neighbouring shards never share a cache line.
  struct alignas(64) Shard {
    // The tally of `key`, or null.
    const Tally* Find(uint64_t key) const;
    Tally& FindOrInsert(uint64_t key);
    // Sizes `slots` for the entries and re-places every one (on growth,
    // and after the drain erased some).
    void Reindex();

    // A vote writes the lock and `votes`, which share a cache line, and
    // its entry.
    mutable std::mutex mu;
    uint64_t votes = 0;  // votes recorded
    rdf::IriIndex iris;  // the IRIs of every link voted into this shard
    std::vector<Entry> entries;  // open tallies
    // Power-of-two open-addressing table over `entries`: each slot is an
    // entry index + 1, 0 marks an empty slot. Load at most one half.
    std::vector<uint32_t> slots = std::vector<uint32_t>(16, 0);
    // Shard IRI id -> drain-side IRI id; extended by each drain.
    std::vector<uint32_t> drain_ids;
  };

  // A copy of the tally of `link` (zero if it has none).
  Tally TallyOf(const linking::Link& link) const;

  // Gives the drain-side ids from `first_new` on their ranks.
  void Rerank(uint32_t first_new);

  AggregatorOptions options_;
  // unique_ptr: Shard holds a mutex and must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  // The epoch stamped on incoming votes; DrainVerdicts(e) publishes e + 1.
  // Votes only read it.
  std::atomic<uint64_t> vote_epoch_{0};
  std::atomic<uint64_t> verdicts_emitted_{0};
  std::atomic<uint64_t> votes_suppressed_{0};
  std::atomic<uint64_t> tallies_evicted_{0};
  // Drain-side state (the draining thread only): every IRI any shard
  // interned, each id's rank among them in byte order, and the ids in rank
  // order.
  rdf::IriIndex drain_iris_;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> by_rank_;
};

}  // namespace alex::feedback

#endif  // ALEX_FEEDBACK_AGGREGATOR_H_
