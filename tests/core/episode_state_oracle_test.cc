// Differential oracles for the dense, PairId-indexed episode state: the
// hash-map CandidateSet and RollbackLog parent map that preceded the flat
// arrays, kept here as reference models. Randomized operation sequences —
// PairIds past the initial universe included, as triple ingest produces —
// must give exactly the same members in the same order, the same sampled
// draws, epoch counts and sorted deltas, the same parent lists and the
// same fired and rolled-back order. Episode series are bitwise-identical to
// the hash-map versions only because every one of these orders is.
#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/candidate_set.h"
#include "core/rollback_log.h"

namespace alex::core {
namespace {

// The hash-map CandidateSet: positions and net epoch deltas in
// unordered_maps, members in a swap-with-last vector.
class HashCandidateSet {
 public:
  bool Add(PairId pair) {
    auto [it, inserted] = positions_.emplace(pair, items_.size());
    if (!inserted) return false;
    items_.push_back(pair);
    BumpDelta(pair, +1);
    return true;
  }

  bool Remove(PairId pair) {
    auto it = positions_.find(pair);
    if (it == positions_.end()) return false;
    size_t pos = it->second;
    PairId last = items_.back();
    items_[pos] = last;
    positions_[last] = pos;
    items_.pop_back();
    positions_.erase(it);
    BumpDelta(pair, -1);
    return true;
  }

  bool Contains(PairId pair) const { return positions_.count(pair) > 0; }
  PairId Sample(Rng* rng) const {
    return items_[rng->NextBounded(items_.size())];
  }
  const std::vector<PairId>& items() const { return items_; }
  size_t EpochChangeCount() const { return delta_.size(); }

  size_t TakeEpochChanges() {
    size_t changes = delta_.size();
    delta_.clear();
    return changes;
  }

  void SortedEpochDelta(std::vector<PairId>* added,
                        std::vector<PairId>* removed) const {
    added->clear();
    removed->clear();
    for (const auto& [pair, net] : delta_) {
      (net > 0 ? added : removed)->push_back(pair);
    }
    std::sort(added->begin(), added->end());
    std::sort(removed->begin(), removed->end());
  }

 private:
  void BumpDelta(PairId pair, int direction) {
    auto [it, inserted] = delta_.emplace(pair, direction);
    if (inserted) return;
    it->second += direction;
    if (it->second == 0) delta_.erase(it);
  }

  std::vector<PairId> items_;
  std::unordered_map<PairId, size_t> positions_;
  std::unordered_map<PairId, int> delta_;
};

// The hash-map RollbackLog: parent lists in an unordered_map keyed by
// PairId, ancestors walked with hash sets and a deque.
class HashRollbackLog {
 public:
  void RecordGeneration(const StateAction& sa,
                        const std::vector<PairId>& pairs) {
    if (pairs.empty()) return;
    std::vector<PairId>& generated = generated_by_[sa];
    generated.insert(generated.end(), pairs.begin(), pairs.end());
    for (PairId pair : pairs) parents_[pair].push_back(sa);
  }

  const std::vector<StateAction>& ParentsOf(PairId pair) const {
    auto it = parents_.find(pair);
    if (it == parents_.end()) return empty_;
    return it->second;
  }

  std::vector<StateAction> AncestorsOf(PairId pair) const {
    std::vector<StateAction> out;
    std::unordered_set<StateAction, StateActionHash> seen;
    std::unordered_set<PairId> visited_states;
    std::deque<PairId> frontier;
    frontier.push_back(pair);
    visited_states.insert(pair);
    while (!frontier.empty()) {
      PairId current = frontier.front();
      frontier.pop_front();
      for (const StateAction& sa : ParentsOf(current)) {
        if (seen.insert(sa).second) out.push_back(sa);
        if (visited_states.insert(sa.state).second) {
          frontier.push_back(sa.state);
        }
      }
    }
    return out;
  }

  std::vector<StateAction> AddNegative(PairId pair, int threshold) {
    std::vector<StateAction> fired;
    for (const StateAction& sa : ParentsOf(pair)) {
      int& count = negative_counts_[sa];
      ++count;
      if (count >= threshold) {
        count = 0;
        fired.push_back(sa);
      }
    }
    return fired;
  }

  std::vector<PairId> TakeGenerated(const StateAction& sa) {
    auto it = generated_by_.find(sa);
    if (it == generated_by_.end()) return {};
    std::vector<PairId> out = std::move(it->second);
    generated_by_.erase(it);
    for (PairId pair : out) {
      auto pit = parents_.find(pair);
      if (pit == parents_.end()) continue;
      std::vector<StateAction>& list = pit->second;
      for (size_t i = 0; i < list.size();) {
        if (list[i] == sa) {
          list[i] = list.back();
          list.pop_back();
        } else {
          ++i;
        }
      }
      if (list.empty()) parents_.erase(pit);
    }
    return out;
  }

  size_t generation_count() const { return generated_by_.size(); }

 private:
  std::unordered_map<StateAction, std::vector<PairId>, StateActionHash>
      generated_by_;
  std::unordered_map<PairId, std::vector<StateAction>> parents_;
  std::unordered_map<StateAction, int, StateActionHash> negative_counts_;
  const std::vector<StateAction> empty_;
};

void ExpectSameCandidates(const CandidateSet& dense,
                          const HashCandidateSet& model, size_t universe) {
  ASSERT_EQ(dense.items(), model.items());
  ASSERT_EQ(dense.EpochChangeCount(), model.EpochChangeCount());
  for (PairId pair = 0; pair < universe; ++pair) {
    ASSERT_EQ(dense.Contains(pair), model.Contains(pair)) << "pair " << pair;
  }
}

TEST(EpisodeStateOracleTest, CandidateSetMatchesHashMapModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng ops(seed);
    size_t universe = 64 + ops.NextBounded(200);
    CandidateSet dense(universe);
    HashCandidateSet model;
    // One sampling stream per set, seeded alike: equal items() order must
    // give equal draws.
    Rng dense_rng(seed * 7919);
    Rng model_rng(seed * 7919);
    std::vector<PairId> dense_added, dense_removed;
    std::vector<PairId> model_added, model_removed;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = ops.NextBounded(100);
      // Bias toward recently grown ids so they see churn too.
      const PairId pair = static_cast<PairId>(
          ops.NextBool(0.3) ? universe - 1 - ops.NextBounded(
                                                 std::min<size_t>(universe, 16))
                            : ops.NextBounded(universe));
      if (op < 45) {
        ASSERT_EQ(dense.Add(pair), model.Add(pair));
      } else if (op < 88) {
        ASSERT_EQ(dense.Remove(pair), model.Remove(pair));
      } else if (op < 94) {
        if (!model.items().empty()) {
          ASSERT_EQ(dense.Sample(&dense_rng), model.Sample(&model_rng));
        }
      } else if (op < 98) {
        dense.SortedEpochDelta(&dense_added, &dense_removed);
        model.SortedEpochDelta(&model_added, &model_removed);
        ASSERT_EQ(dense_added, model_added);
        ASSERT_EQ(dense_removed, model_removed);
        ASSERT_EQ(dense.TakeEpochChanges(), model.TakeEpochChanges());
      } else {
        // Ingest: the universe grows, and the new ids start absent.
        universe += 1 + ops.NextBounded(40);
        dense.Grow(universe);
        ASSERT_EQ(dense.universe(), universe);
      }
      if (step % 997 == 0) ExpectSameCandidates(dense, model, universe);
    }
    ExpectSameCandidates(dense, model, universe);
    dense.SortedEpochDelta(&dense_added, &dense_removed);
    model.SortedEpochDelta(&model_added, &model_removed);
    EXPECT_EQ(dense_added, model_added);
    EXPECT_EQ(dense_removed, model_removed);
  }
}

void ExpectSameParents(const RollbackLog& dense, const HashRollbackLog& model,
                       size_t universe) {
  ASSERT_EQ(dense.generation_count(), model.generation_count());
  for (PairId pair = 0; pair < universe; ++pair) {
    ASSERT_EQ(dense.ParentsOf(pair), model.ParentsOf(pair))
        << "pair " << pair;
  }
}

TEST(EpisodeStateOracleTest, RollbackLogMatchesHashMapModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng ops(seed + 100);
    size_t universe = 32 + ops.NextBounded(96);
    RollbackLog dense(universe);
    HashRollbackLog model;
    // A few states and actions, so state-actions repeat, pairs collect
    // several generators (the same one more than once, as a re-added link
    // does) and generation chains form cycles.
    auto random_sa = [&] {
      return StateAction{static_cast<PairId>(ops.NextBounded(universe)),
                         static_cast<FeatureId>(ops.NextBounded(3))};
    };
    std::vector<PairId> pairs;
    std::vector<StateAction> dense_ancestors;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = ops.NextBounded(100);
      if (op < 35) {
        pairs.clear();
        const size_t count = ops.NextBounded(6);
        for (size_t i = 0; i < count; ++i) {
          pairs.push_back(static_cast<PairId>(ops.NextBounded(universe)));
        }
        const StateAction sa = random_sa();
        dense.RecordGeneration(sa, pairs);
        model.RecordGeneration(sa, pairs);
      } else if (op < 60) {
        const PairId pair = static_cast<PairId>(ops.NextBounded(universe));
        dense.AncestorsOf(pair, &dense_ancestors);
        ASSERT_EQ(dense_ancestors, model.AncestorsOf(pair));
      } else if (op < 85) {
        const PairId pair = static_cast<PairId>(ops.NextBounded(universe));
        const int threshold = 1 + static_cast<int>(ops.NextBounded(3));
        // The fired order is the order of rollback removals.
        ASSERT_EQ(dense.AddNegative(pair, threshold),
                  model.AddNegative(pair, threshold));
      } else if (op < 98) {
        const StateAction sa = random_sa();
        ASSERT_EQ(dense.TakeGenerated(sa), model.TakeGenerated(sa));
      } else {
        universe += 1 + ops.NextBounded(24);
        dense.Grow(universe);
        ASSERT_EQ(dense.universe(), universe);
      }
      if (step % 499 == 0) ExpectSameParents(dense, model, universe);
    }
    ExpectSameParents(dense, model, universe);
  }
}

}  // namespace
}  // namespace alex::core
