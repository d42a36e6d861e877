#include "core/rollback_log.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/alex_engine.h"
#include "core/feature_space.h"

namespace alex::core {
namespace {

// Covers every PairId the tests below use.
constexpr size_t kUniverse = 128;

TEST(RollbackLogTest, ParentsTracked) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5, 6, 7});
  EXPECT_EQ(log.ParentsOf(5).size(), 1u);
  EXPECT_EQ(log.ParentsOf(5)[0], (StateAction{1, 10}));
  EXPECT_TRUE(log.ParentsOf(99).empty());
}

TEST(RollbackLogTest, MultipleGenerators) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5});
  log.RecordGeneration({2, 20}, {5});
  EXPECT_EQ(log.ParentsOf(5).size(), 2u);
}

TEST(RollbackLogTest, AncestorsWalkTheChain) {
  // s1 --a1--> s2 --a2--> s3: feedback on s3 reaches both generators
  // (the paper's return-propagation example in §4.4.1).
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {2});
  log.RecordGeneration({2, 20}, {3});
  std::vector<StateAction> ancestors = log.AncestorsOf(3);
  ASSERT_EQ(ancestors.size(), 2u);
  EXPECT_NE(std::find(ancestors.begin(), ancestors.end(),
                      (StateAction{2, 20})),
            ancestors.end());
  EXPECT_NE(std::find(ancestors.begin(), ancestors.end(),
                      (StateAction{1, 10})),
            ancestors.end());
}

TEST(RollbackLogTest, AncestorsHandleCycles) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {2});
  log.RecordGeneration({2, 20}, {1});  // cycle
  std::vector<StateAction> ancestors = log.AncestorsOf(1);
  EXPECT_EQ(ancestors.size(), 2u);  // terminates, visits each SA once
}

TEST(RollbackLogTest, AncestorsOfRoot) {
  RollbackLog log(kUniverse);
  EXPECT_TRUE(log.AncestorsOf(42).empty());
}

TEST(RollbackLogTest, NegativeThresholdFires) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5, 6});
  EXPECT_TRUE(log.AddNegative(5, 3).empty());
  EXPECT_TRUE(log.AddNegative(6, 3).empty());
  std::vector<StateAction> fired = log.AddNegative(5, 3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (StateAction{1, 10}));
}

TEST(RollbackLogTest, CounterResetsAfterFiring) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5});
  log.AddNegative(5, 2);
  EXPECT_EQ(log.AddNegative(5, 2).size(), 1u);  // second hit fires
  EXPECT_TRUE(log.AddNegative(5, 2).empty());   // counter was reset
}

TEST(RollbackLogTest, TakeGeneratedReturnsAndClears) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5, 6});
  log.RecordGeneration({1, 10}, {7});  // same generator, appended
  std::vector<PairId> generated = log.TakeGenerated({1, 10});
  std::sort(generated.begin(), generated.end());
  EXPECT_EQ(generated, (std::vector<PairId>{5, 6, 7}));
  EXPECT_TRUE(log.TakeGenerated({1, 10}).empty());
}

TEST(RollbackLogTest, TakeGeneratedDetachesParents) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {5});
  log.RecordGeneration({2, 20}, {5});
  log.TakeGenerated({1, 10});
  ASSERT_EQ(log.ParentsOf(5).size(), 1u);
  EXPECT_EQ(log.ParentsOf(5)[0], (StateAction{2, 20}));
  // Negative feedback after the rollback is attributed only to the
  // remaining generator.
  std::vector<StateAction> fired = log.AddNegative(5, 1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], (StateAction{2, 20}));
}

TEST(RollbackLogTest, EmptyGenerationIgnored) {
  RollbackLog log(kUniverse);
  log.RecordGeneration({1, 10}, {});
  EXPECT_EQ(log.generation_count(), 0u);
  EXPECT_TRUE(log.TakeGenerated({1, 10}).empty());
}

TEST(RollbackLogTest, NegativeOnUnknownPairIsNoop) {
  RollbackLog log(kUniverse);
  EXPECT_TRUE(log.AddNegative(123, 1).empty());
}

// ---- RollbackLog × the explorable frontier ----------------------------
//
// A rollback undoes a multi-link exploration action by removing its
// generated candidates; after the next space sync, the partition's
// explorable frontier must be EXACTLY what it was before the action —
// verified by FeatureSpace::Fingerprint().

class RollbackFingerprintTest : public ::testing::Test {
 protected:
  RollbackFingerprintTest() : left_("l"), right_("r") {
    // Identical names: every cross pair scores 1.0 on the name feature, so
    // one positive feedback generates every other pair in one action.
    for (int i = 0; i < 5; ++i) {
      left_.Add(rdf::Term::Iri("http://l/e" + std::to_string(i)),
                rdf::Term::Iri("http://l/name"),
                rdf::Term::StringLiteral("Ada Lovelace"));
    }
    for (int i = 0; i < 4; ++i) {
      right_.Add(rdf::Term::Iri("http://r/x" + std::to_string(i)),
                 rdf::Term::Iri("http://r/label"),
                 rdf::Term::StringLiteral("Ada Lovelace"));
    }
  }

  PartitionAlex MakePartition(uint64_t seed = 7) {
    FeatureSpace space =
        FeatureSpace::Build(left_, left_.Subjects(), right_,
                            right_.Subjects(), &catalog_, options_.space);
    return PartitionAlex(std::move(space), &options_, seed);
  }

  // Episode-boundary sync exactly as the engine performs it: fold the
  // epoch delta into the space, then consume it.
  static void Sync(PartitionAlex* part) {
    part->SyncSpaceToCandidates();
    part->mutable_candidates().TakeEpochChanges();
  }

  // Smallest candidate pair other than `seed` (a deterministic victim).
  static PairId PickGenerated(const PartitionAlex& part, PairId seed) {
    PairId victim = kInvalidPairId;
    for (PairId pair : part.candidates().items()) {
      if (pair != seed && pair < victim) victim = pair;
    }
    return victim;
  }

  rdf::TripleStore left_;
  rdf::TripleStore right_;
  FeatureCatalog catalog_;
  AlexOptions options_;  // rollback_threshold = 3 (default)
};

TEST_F(RollbackFingerprintTest, RollbackRestoresPreActionFingerprint) {
  PartitionAlex part = MakePartition();
  PairId seed = part.space().FindPair("http://l/e0", "http://r/x0");
  ASSERT_NE(seed, kInvalidPairId);
  part.AddInitialCandidate(seed);
  Sync(&part);
  const uint64_t pre_action = part.space().Fingerprint();

  part.BeginEpisode();
  PartitionAlex::FeedbackOutcome outcome = part.ProcessFeedback(seed, true);
  ASSERT_GE(outcome.added, 2u) << "needs a multi-link action";
  Sync(&part);
  EXPECT_NE(part.space().Fingerprint(), pre_action)
      << "generated links must leave the frontier";

  PairId victim = PickGenerated(part, seed);
  ASSERT_NE(victim, kInvalidPairId);
  size_t rollbacks = 0;
  for (int strike = 0; strike < options_.rollback_threshold; ++strike) {
    rollbacks += part.ProcessFeedback(victim, false).rollbacks;
  }
  ASSERT_EQ(rollbacks, 1u);
  ASSERT_EQ(part.candidates().size(), 1u);  // only the seed survives
  Sync(&part);
  EXPECT_EQ(part.space().Fingerprint(), pre_action);
}

TEST_F(RollbackFingerprintTest, RestoresFingerprintAcrossMidEpisodeSyncs) {
  // Sync after EVERY feedback item, so the frontier flips at each strike
  // and the rollback's removals return over several boundaries.
  PartitionAlex part = MakePartition();
  PairId seed = part.space().FindPair("http://l/e0", "http://r/x0");
  ASSERT_NE(seed, kInvalidPairId);
  part.AddInitialCandidate(seed);
  Sync(&part);
  const uint64_t pre_action = part.space().Fingerprint();

  part.BeginEpisode();
  ASSERT_GE(part.ProcessFeedback(seed, true).added, 2u);
  Sync(&part);
  PairId victim = PickGenerated(part, seed);
  size_t rollbacks = 0;
  for (int strike = 0; strike < options_.rollback_threshold; ++strike) {
    rollbacks += part.ProcessFeedback(victim, false).rollbacks;
    Sync(&part);
  }
  ASSERT_EQ(rollbacks, 1u);
  EXPECT_EQ(part.space().Fingerprint(), pre_action);
}

TEST_F(RollbackFingerprintTest, ConfirmedLinkSurvivesRollbackInFrontier) {
  PartitionAlex part = MakePartition();
  PairId seed = part.space().FindPair("http://l/e0", "http://r/x0");
  PairId kept = part.space().FindPair("http://l/e1", "http://r/x1");
  ASSERT_NE(seed, kInvalidPairId);
  ASSERT_NE(kept, kInvalidPairId);
  part.AddInitialCandidate(seed);
  Sync(&part);
  const uint64_t pre_action = part.space().Fingerprint();

  part.BeginEpisode();
  ASSERT_GE(part.ProcessFeedback(seed, true).added, 2u);
  ASSERT_TRUE(part.candidates().Contains(kept));
  part.ProcessFeedback(kept, true);  // user confirms this generated link
  PairId victim = kInvalidPairId;
  for (PairId pair : part.candidates().items()) {
    if (pair != seed && pair != kept && pair < victim) victim = pair;
  }
  ASSERT_NE(victim, kInvalidPairId);
  size_t rollbacks = 0;
  for (int strike = 0; strike < options_.rollback_threshold; ++strike) {
    rollbacks += part.ProcessFeedback(victim, false).rollbacks;
  }
  ASSERT_EQ(rollbacks, 1u);
  Sync(&part);
  // The confirmed link stays a candidate, so the fingerprint differs from
  // the pre-action frontier by exactly that link.
  EXPECT_EQ(part.candidates().size(), 2u);
  EXPECT_FALSE(part.space().IsLive(kept));
  EXPECT_NE(part.space().Fingerprint(), pre_action);
  part.mutable_candidates().Remove(kept);
  Sync(&part);
  EXPECT_EQ(part.space().Fingerprint(), pre_action);
}

// The frontier's boundary rule: exploration sees the frontier as of the
// last SyncSpaceToCandidates. A candidate removed mid-episode is not
// explorable again until the next boundary, even when a positive item's
// band contains it; after the boundary the same item re-adds it.
using FrontierBoundaryTest = RollbackFingerprintTest;

TEST_F(FrontierBoundaryTest, RemovedCandidateReturnsOnlyAtNextBoundary) {
  PartitionAlex part = MakePartition();
  const PairId seed = part.space().FindPair("http://l/e0", "http://r/x0");
  const PairId rejected = part.space().FindPair("http://l/e1", "http://r/x1");
  ASSERT_NE(seed, kInvalidPairId);
  ASSERT_NE(rejected, kInvalidPairId);
  part.AddInitialCandidate(seed);
  part.AddInitialCandidate(rejected);
  Sync(&part);
  ASSERT_FALSE(part.space().IsLive(rejected));

  // Mid-episode: the rejection removes the candidate, and the positive
  // item's band (every pair scores 1.0) explores everything else.
  part.BeginEpisode();
  ASSERT_TRUE(part.ProcessFeedback(rejected, false).removed);
  ASSERT_FALSE(part.candidates().Contains(rejected));
  const PartitionAlex::FeedbackOutcome first =
      part.ProcessFeedback(seed, true);
  EXPECT_EQ(first.added, part.space().pair_count() - 2);
  EXPECT_FALSE(part.candidates().Contains(rejected))
      << "a candidate removed mid-episode re-entered the frontier before "
         "the boundary";

  // The boundary flips the rejected pair back on: the same item re-adds it,
  // and nothing else, since every other pair is now a candidate.
  Sync(&part);
  EXPECT_TRUE(part.space().IsLive(rejected));
  EXPECT_EQ(part.space().live_pair_count(), 1u);
  part.BeginEpisode();
  const PartitionAlex::FeedbackOutcome second =
      part.ProcessFeedback(seed, true);
  EXPECT_EQ(second.added, 1u);
  EXPECT_TRUE(part.candidates().Contains(rejected));
}

}  // namespace
}  // namespace alex::core
