#include "core/candidate_set.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace alex::core {
namespace {

// Covers every PairId the tests below use.
constexpr size_t kUniverse = 500;

TEST(CandidateSetTest, AddRemoveContains) {
  CandidateSet set(kUniverse);
  EXPECT_TRUE(set.Add(5));
  EXPECT_FALSE(set.Add(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Remove(5));
  EXPECT_FALSE(set.Remove(5));
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.empty());
}

TEST(CandidateSetTest, SwapPopKeepsConsistency) {
  CandidateSet set(kUniverse);
  for (PairId id = 0; id < 10; ++id) set.Add(id);
  set.Remove(0);  // removes head, swaps in tail
  set.Remove(9);
  set.Remove(4);
  EXPECT_EQ(set.size(), 7u);
  std::set<PairId> expected = {1, 2, 3, 5, 6, 7, 8};
  std::set<PairId> actual(set.items().begin(), set.items().end());
  EXPECT_EQ(actual, expected);
  for (PairId id : expected) EXPECT_TRUE(set.Contains(id));
}

TEST(CandidateSetTest, SampleIsUniformish) {
  CandidateSet set(kUniverse);
  for (PairId id = 0; id < 10; ++id) set.Add(id);
  Rng rng(5);
  std::map<PairId, int> counts;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[set.Sample(&rng)];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [id, count] : counts) {
    EXPECT_NEAR(count, draws / 10, draws / 10 * 0.2) << "pair " << id;
  }
}

TEST(CandidateSetTest, SortedSnapshot) {
  CandidateSet set(kUniverse);
  set.Add(9);
  set.Add(1);
  set.Add(5);
  EXPECT_EQ(set.SortedSnapshot(), (std::vector<PairId>{1, 5, 9}));
}

TEST(CandidateSetTest, ReAddAfterRemove) {
  CandidateSet set(kUniverse);
  set.Add(3);
  set.Remove(3);
  EXPECT_TRUE(set.Add(3));
  EXPECT_TRUE(set.Contains(3));
}

TEST(CandidateSetTest, EpochChangesCountNetMembership) {
  CandidateSet set(kUniverse);
  set.Add(1);
  set.Add(2);
  EXPECT_EQ(set.EpochChangeCount(), 2u);
  EXPECT_EQ(set.TakeEpochChanges(), 2u);
  EXPECT_EQ(set.EpochChangeCount(), 0u);

  // Add then remove within an epoch nets to zero.
  set.Add(3);
  set.Remove(3);
  EXPECT_EQ(set.EpochChangeCount(), 0u);

  // Remove then re-add of a baseline member also nets to zero.
  set.Remove(1);
  EXPECT_EQ(set.EpochChangeCount(), 1u);
  set.Add(1);
  EXPECT_EQ(set.EpochChangeCount(), 0u);

  // Mixed: one removal, one addition.
  set.Remove(2);
  set.Add(7);
  EXPECT_EQ(set.TakeEpochChanges(), 2u);
  EXPECT_EQ(set.EpochChangeCount(), 0u);
}

TEST(CandidateSetTest, EpochChangesMatchSymmetricDifference) {
  CandidateSet set(kUniverse);
  Rng rng(23);
  for (PairId id = 0; id < 100; id += 2) set.Add(id);
  set.TakeEpochChanges();
  std::set<PairId> baseline(set.items().begin(), set.items().end());
  for (int i = 0; i < 5000; ++i) {
    PairId id = static_cast<PairId>(rng.NextBounded(120));
    if (rng.NextBool(0.5)) {
      set.Add(id);
    } else {
      set.Remove(id);
    }
  }
  std::set<PairId> current(set.items().begin(), set.items().end());
  size_t symdiff = 0;
  for (PairId id : baseline) symdiff += current.count(id) == 0;
  for (PairId id : current) symdiff += baseline.count(id) == 0;
  EXPECT_EQ(set.EpochChangeCount(), symdiff);
}

TEST(CandidateSetTest, StressAddRemove) {
  CandidateSet set(kUniverse);
  Rng rng(11);
  std::set<PairId> reference;
  for (int i = 0; i < 20000; ++i) {
    PairId id = static_cast<PairId>(rng.NextBounded(500));
    if (rng.NextBool(0.5)) {
      EXPECT_EQ(set.Add(id), reference.insert(id).second);
    } else {
      EXPECT_EQ(set.Remove(id), reference.erase(id) > 0);
    }
  }
  EXPECT_EQ(set.size(), reference.size());
  for (PairId id : reference) EXPECT_TRUE(set.Contains(id));
}

}  // namespace
}  // namespace alex::core
