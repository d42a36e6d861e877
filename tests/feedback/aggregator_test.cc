#include "feedback/aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace alex::feedback {
namespace {

using linking::Link;

const Link kLink{"http://l/a", "http://r/x", 1.0};

// Applies one drain's worth of votes and returns the batch.
std::vector<LinkVerdict> DrainOnce(FeedbackAggregator* agg, uint64_t epoch) {
  return agg->DrainVerdicts(epoch);
}

TEST(AggregatorTest, NoVerdictBeforeQuorum) {
  FeedbackAggregator agg({.quorum = 3});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  EXPECT_EQ(agg.PositiveVotes(kLink), 2);
  EXPECT_TRUE(DrainOnce(&agg, 0).empty());
  EXPECT_EQ(agg.pending(), 1u);
}

TEST(AggregatorTest, UnanimousQuorumEmitsVerdict) {
  FeedbackAggregator agg({.quorum = 3});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].approve);
  EXPECT_EQ(batch[0].positive, 3u);
  EXPECT_EQ(batch[0].negative, 0u);
  EXPECT_EQ(agg.verdicts_emitted(), 1u);
}

TEST(AggregatorTest, MajorityWinsDespiteDissent) {
  FeedbackAggregator agg({.quorum = 3});
  agg.AddVote(kLink, false);
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].approve);
  // The dissenting vote was suppressed by the quorum.
  EXPECT_EQ(agg.stats().votes_suppressed, 1u);
}

TEST(AggregatorTest, NegativeMajority) {
  FeedbackAggregator agg({.quorum = 3});
  agg.AddVote(kLink, false);
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, false);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].approve);
}

TEST(AggregatorTest, TieKeepsAccumulating) {
  FeedbackAggregator agg({.quorum = 2});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, false);
  EXPECT_TRUE(DrainOnce(&agg, 0).empty());  // 1-1 tie
  agg.AddVote(kLink, true);                 // breaks the tie
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].approve);
}

TEST(AggregatorTest, ResetAfterVerdict) {
  FeedbackAggregator agg({.quorum = 2});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  EXPECT_EQ(DrainOnce(&agg, 0).size(), 1u);
  EXPECT_EQ(agg.PositiveVotes(kLink), 0);  // tally cleared
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(AggregatorTest, KeepTallyReEmitsOnlyOnFreshVotes) {
  FeedbackAggregator agg(
      {.quorum = 2, .majority = 0.5, .reset_after_verdict = false});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  EXPECT_EQ(DrainOnce(&agg, 0).size(), 1u);
  EXPECT_EQ(agg.PositiveVotes(kLink), 2);  // tally kept
  // No new votes: the same tally must not re-emit.
  EXPECT_TRUE(DrainOnce(&agg, 1).empty());
  // A fresh vote re-opens it.
  agg.AddVote(kLink, true);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 2);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].positive, 3u);
}

TEST(AggregatorTest, LinksAreIndependentAndBatchSorted) {
  FeedbackAggregator agg({.quorum = 1});
  Link b{"http://l/b", "http://r/y", 1.0};
  // Insert in descending link order; the batch must come back ascending.
  agg.AddVote(b, false);
  agg.AddVote(kLink, true);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].link, kLink);
  EXPECT_TRUE(batch[0].approve);
  EXPECT_EQ(batch[1].link, b);
  EXPECT_FALSE(batch[1].approve);
}

TEST(AggregatorTest, SupermajorityThreshold) {
  // With majority = 0.66, a 3-2 split (60%) does not pass but 4-2 (66.7%)
  // does.
  FeedbackAggregator agg({.quorum = 5, .majority = 0.66});
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, true);
  agg.AddVote(kLink, false);
  agg.AddVote(kLink, false);
  EXPECT_TRUE(DrainOnce(&agg, 0).empty());
  agg.AddVote(kLink, true);
  std::vector<LinkVerdict> batch = DrainOnce(&agg, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].approve);
}

TEST(AggregatorTest, StaleTalliesAreEvicted) {
  FeedbackAggregator agg({.quorum = 5, .stale_after_epochs = 3});
  agg.AddVote(kLink, true);  // stamped epoch 0, never reaches quorum
  EXPECT_TRUE(agg.DrainVerdicts(0).empty());
  EXPECT_EQ(agg.pending(), 1u);
  EXPECT_TRUE(agg.DrainVerdicts(1).empty());
  EXPECT_TRUE(agg.DrainVerdicts(2).empty());
  EXPECT_EQ(agg.pending(), 1u);  // epoch 2 < 0 + 3: still alive
  EXPECT_TRUE(agg.DrainVerdicts(3).empty());
  EXPECT_EQ(agg.pending(), 0u);  // evicted at its TTL
  AggregatorStats stats = agg.stats();
  EXPECT_EQ(stats.tallies_evicted, 1u);
  EXPECT_EQ(stats.votes_suppressed, 1u);
}

TEST(AggregatorTest, FreshVotesRefreshTheTtl) {
  FeedbackAggregator agg({.quorum = 5, .stale_after_epochs = 3});
  agg.AddVote(kLink, true);
  agg.DrainVerdicts(0);
  agg.DrainVerdicts(1);
  agg.AddVote(kLink, true);  // stamped epoch 2 by the vote clock
  agg.DrainVerdicts(2);
  agg.DrainVerdicts(3);
  agg.DrainVerdicts(4);
  EXPECT_EQ(agg.pending(), 1u);  // epoch 4 < 2 + 3
  agg.DrainVerdicts(5);
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(AggregatorTest, MaxPendingEvictsOldestThenSmallestLink) {
  // Unbounded-growth regression: a stream of never-quorate links must not
  // grow the tally population past the cap, and the victims are
  // deterministic (oldest vote epoch first, then ascending link).
  AggregatorOptions options;
  options.quorum = 100;  // nothing ever emits
  options.stale_after_epochs = 0;
  options.max_pending = 8;
  FeedbackAggregator agg(options);
  for (int epoch = 0; epoch < 50; ++epoch) {
    for (int i = 0; i < 4; ++i) {
      Link link{"l" + std::to_string(epoch * 4 + i),
                "r" + std::to_string(epoch * 4 + i), 1.0};
      agg.AddVote(link, true);
    }
    agg.DrainVerdicts(static_cast<uint64_t>(epoch));
    EXPECT_LE(agg.pending(), options.max_pending);
  }
  // The survivors are exactly the youngest tallies.
  EXPECT_EQ(agg.pending(), 8u);
  EXPECT_EQ(agg.PositiveVotes(Link{"l196", "r196", 1.0}), 1);
  EXPECT_EQ(agg.PositiveVotes(Link{"l199", "r199", 1.0}), 1);
  EXPECT_EQ(agg.PositiveVotes(Link{"l0", "r0", 1.0}), 0);
  EXPECT_EQ(agg.stats().tallies_evicted, 50u * 4u - 8u);
}

// Independently-implemented single-map reference of the aggregator's
// semantics: per-link tallies in a std::map keyed by Link, so it iterates
// in ascending link order; quorum and strict majority at drain time,
// keep-tally re-emission, the TTL and the max_pending cap in
// (last vote epoch, link) order.
class ReferenceAggregator {
 public:
  explicit ReferenceAggregator(const AggregatorOptions& options)
      : options_(options) {}

  void AddVote(const Link& link, bool approve) {
    Tally& tally = tallies_[link];
    ++(approve ? tally.positive : tally.negative);
    tally.last_vote_epoch = vote_epoch_;
    ++stats_.votes_recorded;
  }

  std::vector<LinkVerdict> Drain(uint64_t epoch) {
    std::vector<LinkVerdict> out;
    std::vector<std::pair<uint64_t, Link>> open;
    for (auto it = tallies_.begin(); it != tallies_.end();) {
      Tally& tally = it->second;
      const uint32_t total = tally.positive + tally.negative;
      const double threshold = options_.majority * total;
      const bool quorate = total >= static_cast<uint32_t>(options_.quorum) &&
                           total > tally.votes_at_last_emit;
      if (quorate &&
          (tally.positive > threshold || tally.negative > threshold)) {
        const bool approve = tally.positive > threshold;
        out.push_back(
            LinkVerdict{it->first, approve, tally.positive, tally.negative});
        ++stats_.verdicts_emitted;
        stats_.votes_suppressed += approve ? tally.negative : tally.positive;
        if (options_.reset_after_verdict) {
          it = tallies_.erase(it);
          continue;
        }
        tally.votes_at_last_emit = total;
      } else if (options_.stale_after_epochs > 0 &&
                 epoch >= tally.last_vote_epoch + options_.stale_after_epochs) {
        Evict(it++);
        continue;
      } else {
        open.emplace_back(tally.last_vote_epoch, it->first);
      }
      ++it;
    }
    if (options_.max_pending > 0 && open.size() > options_.max_pending) {
      std::sort(open.begin(), open.end());
      for (size_t i = 0; i < open.size() - options_.max_pending; ++i) {
        Evict(tallies_.find(open[i].second));
      }
    }
    vote_epoch_ = epoch + 1;
    return out;
  }

  std::pair<int, int> Votes(const Link& link) const {
    auto it = tallies_.find(link);
    if (it == tallies_.end()) return {0, 0};
    return {static_cast<int>(it->second.positive),
            static_cast<int>(it->second.negative)};
  }

  AggregatorStats stats() const {
    AggregatorStats out = stats_;
    out.pending = tallies_.size();
    return out;
  }

 private:
  struct Tally {
    uint32_t positive = 0;
    uint32_t negative = 0;
    uint32_t votes_at_last_emit = 0;
    uint64_t last_vote_epoch = 0;
  };

  void Evict(std::map<Link, Tally>::iterator it) {
    stats_.votes_suppressed += it->second.positive + it->second.negative -
                               it->second.votes_at_last_emit;
    ++stats_.tallies_evicted;
    tallies_.erase(it);
  }

  AggregatorOptions options_;
  std::map<Link, Tally> tallies_;
  uint64_t vote_epoch_ = 0;
  AggregatorStats stats_;
};

std::vector<LinkVerdict> ReferenceVerdicts(
    const std::vector<std::pair<Link, bool>>& votes,
    const AggregatorOptions& options) {
  ReferenceAggregator reference(options);
  for (const auto& [link, approve] : votes) reference.AddVote(link, approve);
  return reference.Drain(0);
}

bool SameBatch(const std::vector<LinkVerdict>& a,
               const std::vector<LinkVerdict>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].link == b[i].link) || a[i].approve != b[i].approve ||
        a[i].positive != b[i].positive || a[i].negative != b[i].negative) {
      return false;
    }
  }
  return true;
}

TEST(AggregatorDifferentialTest, RandomStreamsMatchReferenceAnyShardCount) {
  Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    // A random vote stream over a small link universe (lots of collisions).
    std::vector<std::pair<Link, bool>> votes;
    const size_t universe = 1 + rng.NextBounded(30);
    const size_t count = rng.NextBounded(400);
    for (size_t v = 0; v < count; ++v) {
      size_t id = rng.NextBounded(universe);
      votes.push_back({Link{"l" + std::to_string(id),
                            "r" + std::to_string(id), 1.0},
                       rng.NextBool(0.6)});
    }
    AggregatorOptions options;
    options.quorum = 1 + static_cast<int>(rng.NextBounded(5));
    std::vector<LinkVerdict> expected = ReferenceVerdicts(votes, options);
    for (size_t shards : {1u, 4u, 16u}) {
      options.num_shards = shards;
      FeedbackAggregator agg(options);
      // Feed in a fresh shuffled order per shard count: the batch depends
      // only on the multiset.
      std::vector<std::pair<Link, bool>> shuffled = votes;
      rng.Shuffle(&shuffled);
      for (const auto& [link, approve] : shuffled) {
        agg.AddVote(link, approve);
      }
      std::vector<LinkVerdict> batch = agg.DrainVerdicts(0);
      EXPECT_TRUE(SameBatch(batch, expected))
          << "round " << round << " shards " << shards;
    }
  }
}

bool SameStats(const AggregatorStats& a, const AggregatorStats& b) {
  return a.votes_recorded == b.votes_recorded &&
         a.verdicts_emitted == b.verdicts_emitted &&
         a.votes_suppressed == b.votes_suppressed &&
         a.tallies_evicted == b.tallies_evicted && a.pending == b.pending;
}

// IRI number `i` in namespace `ns`, shaped to stress the batch order: the
// namespaces are at least 28 bytes, every local name starts with the same
// 8 bytes and differs only after them, "Resource" is a proper prefix of
// every other name, and some tails carry bytes >= 0x80 (which sort after
// ASCII in std::string's unsigned byte order).
std::string ShapedIri(const std::string& ns, size_t i) {
  static const std::vector<std::string> kTails = {
      "",   "0",    "00",       "1",      "a",        "A",        "~",
      "\x7f", "\x80", "\xc3\xa9", "\xff", "\xff\x01", "a\x80", " "};
  std::string iri = ns + "Resource" + kTails[i % kTails.size()];
  if (i >= kTails.size()) iri += "/" + std::to_string(i / kTails.size());
  return iri;
}

// Index in [0, n), skewed towards 0 so that a few entities collect many
// links, as popular entities do.
size_t SkewedIndex(Rng* rng, size_t n) {
  const double u = rng->NextDouble();
  return std::min(n - 1, static_cast<size_t>(u * u * static_cast<double>(n)));
}

TEST(AggregatorDifferentialTest, ShapedStreamsMatchReferenceOverManyDrains) {
  const std::string kLeftNs = "http://dbpedia.org/resource/";
  const std::string kRightNs = "http://data.nytimes.com/resource/";
  ASSERT_EQ(kLeftNs.size(), 28u);
  Rng rng(4242);
  for (int round = 0; round < 24; ++round) {
    AggregatorOptions options;
    options.quorum = 1 + static_cast<int>(rng.NextBounded(4));
    options.majority = rng.NextBool(0.5) ? 0.5 : 0.66;
    options.reset_after_verdict = round % 2 == 0;
    options.stale_after_epochs = static_cast<uint64_t>(round / 2 % 3);
    options.max_pending = round / 6 % 2 == 0 ? 0 : 1 + rng.NextBounded(24);
    // Many rights per left, many lefts per right, or many of both; in some
    // rounds both sides share one namespace.
    const size_t lefts = round % 3 == 0 ? 3 : 60;
    const size_t rights = round % 3 == 1 ? 3 : 60;
    const std::string& right_ns = round % 4 == 3 ? kLeftNs : kRightNs;

    // Six vote batches over a universe that grows batch by batch, so new
    // IRIs keep arriving; after some batches a second drain follows with no
    // votes in between, and drain epochs sometimes skip ahead.
    const int kBatches = 6;
    std::vector<std::vector<std::pair<Link, bool>>> batches(kBatches);
    std::vector<std::vector<uint64_t>> drains(kBatches);
    std::map<Link, int> voted;
    uint64_t epoch = 0;
    for (int b = 0; b < kBatches; ++b) {
      const size_t left_pool = std::max<size_t>(1, lefts * (b + 1) / kBatches);
      const size_t right_pool =
          std::max<size_t>(1, rights * (b + 1) / kBatches);
      const size_t count = rng.NextBounded(300);
      for (size_t v = 0; v < count; ++v) {
        Link link{ShapedIri(kLeftNs, SkewedIndex(&rng, left_pool)),
                  ShapedIri(right_ns, SkewedIndex(&rng, right_pool)), 1.0};
        voted[link] = 0;
        batches[b].push_back({link, rng.NextBool(0.6)});
      }
      drains[b].push_back(epoch);
      epoch += 1 + rng.NextBounded(2);
      if (rng.NextBool(0.5)) {
        drains[b].push_back(epoch);
        epoch += 1;
      }
    }

    ReferenceAggregator reference(options);
    std::vector<std::vector<LinkVerdict>> expected;
    std::vector<AggregatorStats> expected_stats;
    std::vector<std::vector<std::pair<int, int>>> expected_votes;
    for (int b = 0; b < kBatches; ++b) {
      for (const auto& [link, approve] : batches[b]) {
        reference.AddVote(link, approve);
      }
      for (const uint64_t drain_epoch : drains[b]) {
        expected.push_back(reference.Drain(drain_epoch));
        expected_stats.push_back(reference.stats());
        expected_votes.emplace_back();
        for (const auto& [link, unused] : voted) {
          expected_votes.back().push_back(reference.Votes(link));
        }
      }
    }
    size_t emitted = 0;
    for (const auto& batch : expected) emitted += batch.size();
    EXPECT_GT(emitted, 0u) << "round " << round;

    for (size_t shards : {1u, 4u, 16u}) {
      options.num_shards = shards;
      FeedbackAggregator agg(options);
      size_t d = 0;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::pair<Link, bool>> shuffled = batches[b];
        rng.Shuffle(&shuffled);
        for (const auto& [link, approve] : shuffled) {
          agg.AddVote(link, approve);
        }
        for (const uint64_t drain_epoch : drains[b]) {
          const std::string where = "round " + std::to_string(round) +
                                    " shards " + std::to_string(shards) +
                                    " drain " + std::to_string(d);
          EXPECT_TRUE(SameBatch(agg.DrainVerdicts(drain_epoch), expected[d]))
              << where;
          EXPECT_TRUE(SameStats(agg.stats(), expected_stats[d])) << where;
          size_t k = 0;
          for (const auto& [link, unused] : voted) {
            const std::pair<int, int> votes{agg.PositiveVotes(link),
                                            agg.NegativeVotes(link)};
            EXPECT_EQ(votes, expected_votes[d][k++]) << where;
          }
          ++d;
        }
      }
    }
  }
}

TEST(AggregatorThreadTest, ConcurrentVoteStreamsDrainIdentically) {
  // The same vote multiset cast by 1, 2 and 4 threads must drain to the
  // same verdict batch, for both the sharded and the single-lock layout.
  Rng rng(99);
  std::vector<std::pair<Link, bool>> votes;
  for (size_t v = 0; v < 2000; ++v) {
    size_t id = rng.NextBounded(64);
    votes.push_back({Link{"l" + std::to_string(id),
                          "r" + std::to_string(id), 1.0},
                     rng.NextBool(0.7)});
  }
  for (size_t shards : {1u, 16u}) {
    std::vector<LinkVerdict> baseline;
    for (int threads : {1, 2, 4}) {
      AggregatorOptions options;
      options.quorum = 3;
      options.num_shards = shards;
      FeedbackAggregator agg(options);
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          for (size_t v = static_cast<size_t>(t); v < votes.size();
               v += static_cast<size_t>(threads)) {
            agg.AddVote(votes[v].first, votes[v].second);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      std::vector<LinkVerdict> batch = agg.DrainVerdicts(0);
      if (threads == 1) {
        baseline = batch;
      } else {
        EXPECT_TRUE(SameBatch(batch, baseline))
            << "shards " << shards << " threads " << threads;
      }
    }
  }
}

TEST(AggregatorThreadTest, VotesDuringDrainsCountExactlyOnce) {
  // The serving loop drains while its streams keep voting: a vote cast
  // during a drain lands in that drain or in a later one, exactly once,
  // including votes on IRIs that first appear mid-drain.
  AggregatorOptions options;
  options.quorum = 2;
  options.stale_after_epochs = 0;
  FeedbackAggregator agg(options);
  constexpr int kWriters = 3;
  constexpr size_t kVotesPerWriter = 20000;
  constexpr size_t kMaxLeft = 50 + kVotesPerWriter / 10;
  auto link_of = [](size_t id) {
    return Link{"http://l/" + std::to_string(id),
                "http://r/" + std::to_string(id % 37), 1.0};
  };
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (size_t v = 0; v < kVotesPerWriter; ++v) {
        agg.AddVote(link_of(rng.NextBounded(50 + v / 10)), rng.NextBool(0.5));
      }
      running.fetch_sub(1);
    });
  }
  uint64_t drained_votes = 0;
  uint64_t epoch = 0;
  auto drain = [&] {
    const std::vector<LinkVerdict> batch = agg.DrainVerdicts(epoch++);
    for (size_t i = 0; i < batch.size(); ++i) {
      drained_votes += batch[i].positive + batch[i].negative;
      if (i > 0) {
        EXPECT_TRUE(batch[i - 1].link < batch[i].link);
      }
    }
  };
  while (running.load() > 0) drain();
  for (std::thread& writer : writers) writer.join();
  drain();
  // reset_after_verdict: every vote sits in one drained verdict or in a
  // pending tally.
  uint64_t pending_votes = 0;
  for (size_t id = 0; id < kMaxLeft; ++id) {
    pending_votes += static_cast<uint64_t>(agg.PositiveVotes(link_of(id)) +
                                           agg.NegativeVotes(link_of(id)));
  }
  EXPECT_EQ(drained_votes + pending_votes, kWriters * kVotesPerWriter);
  EXPECT_EQ(agg.stats().votes_recorded, kWriters * kVotesPerWriter);
}

TEST(AggregatorTest, SuppressesNoisyUsersStatistically) {
  // 100 links, each voted on by 5 users who are wrong 20% of the time:
  // the aggregated verdicts should have far fewer errors than the raw
  // votes. (The mechanism §6.3 alludes to for pre-cleaning feedback.)
  Rng rng(77);
  FeedbackAggregator agg({.quorum = 5});
  int wrong_verdicts = 0;
  for (int i = 0; i < 100; ++i) {
    Link link{"l" + std::to_string(i), "r" + std::to_string(i), 1.0};
    bool truth = i % 2 == 0;
    for (int user = 0; user < 5; ++user) {
      bool vote = rng.NextBool(0.2) ? !truth : truth;
      agg.AddVote(link, vote);
    }
  }
  std::vector<LinkVerdict> batch = agg.DrainVerdicts(0);
  EXPECT_GT(batch.size(), 80u);
  for (const LinkVerdict& verdict : batch) {
    bool truth = std::stoi(verdict.link.left.substr(1)) % 2 == 0;
    if (verdict.approve != truth) ++wrong_verdicts;
  }
  // Raw error rate would be ~20%; aggregated should be well under 10%.
  EXPECT_LT(static_cast<double>(wrong_verdicts) /
                static_cast<double>(batch.size()),
            0.1);
}

TEST(AggregatorTest, StatsTrackTheWholeLifecycle) {
  AggregatorOptions options;
  options.quorum = 3;
  options.stale_after_epochs = 1;
  FeedbackAggregator agg(options);
  Link quorate{"l/q", "r/q", 1.0};
  Link stale{"l/s", "r/s", 1.0};
  agg.AddVote(quorate, true);
  agg.AddVote(quorate, true);
  agg.AddVote(quorate, false);
  agg.AddVote(stale, true);
  agg.DrainVerdicts(0);  // emits quorate (suppressing 1 dissent)
  agg.DrainVerdicts(1);  // evicts stale (suppressing its 1 vote)
  AggregatorStats stats = agg.stats();
  EXPECT_EQ(stats.votes_recorded, 4u);
  EXPECT_EQ(stats.verdicts_emitted, 1u);
  EXPECT_EQ(stats.votes_suppressed, 2u);
  EXPECT_EQ(stats.tallies_evicted, 1u);
  EXPECT_EQ(stats.pending, 0u);
}

}  // namespace
}  // namespace alex::feedback
