#include "core/feature_space.h"

#include <cmath>

#include <gtest/gtest.h>

namespace alex::core {
namespace {

using rdf::Term;
using rdf::TripleStore;

class FeatureSpaceTest : public ::testing::Test {
 protected:
  FeatureSpaceTest() : left_("l"), right_("r") {
    // Three left entities, two right entities; e0/x0 and e1/x1 match.
    AddEntity(&left_, "http://l/e0", "http://l/name", "Ada Lovelace");
    AddEntity(&left_, "http://l/e1", "http://l/name", "Alan Turing");
    AddEntity(&left_, "http://l/e2", "http://l/name", "Completely Other");
    AddEntity(&right_, "http://r/x0", "http://r/label", "Ada Lovelace");
    AddEntity(&right_, "http://r/x1", "http://r/label", "Alan Turing");
  }

  static void AddEntity(TripleStore* store, const char* iri,
                        const char* pred, const char* name) {
    store->Add(Term::Iri(iri), Term::Iri(pred), Term::StringLiteral(name));
  }

  FeatureSpace Build(double theta = 0.3) {
    FeatureSpaceOptions options;
    options.theta = theta;
    return FeatureSpace::Build(left_, left_.Subjects(), right_,
                               right_.Subjects(), &catalog_, options);
  }

  TripleStore left_;
  TripleStore right_;
  FeatureCatalog catalog_;
};

TEST_F(FeatureSpaceTest, TotalPairCountIsCrossProduct) {
  FeatureSpace space = Build();
  EXPECT_EQ(space.total_pair_count(), 6u);
}

TEST_F(FeatureSpaceTest, FilteringDropsDissimilarPairs) {
  FeatureSpace space = Build();
  // Matching pairs survive; "Completely Other" has no counterpart.
  EXPECT_LT(space.pair_count(), 6u);
  EXPECT_NE(space.FindPair("http://l/e0", "http://r/x0"), kInvalidPairId);
  EXPECT_NE(space.FindPair("http://l/e1", "http://r/x1"), kInvalidPairId);
}

TEST_F(FeatureSpaceTest, FindPairUnknownReturnsInvalid) {
  FeatureSpace space = Build();
  EXPECT_EQ(space.FindPair("http://l/none", "http://r/x0"), kInvalidPairId);
}

TEST_F(FeatureSpaceTest, IriAccessors) {
  FeatureSpace space = Build();
  PairId pair = space.FindPair("http://l/e0", "http://r/x0");
  ASSERT_NE(pair, kInvalidPairId);
  EXPECT_EQ(space.LeftIri(pair), "http://l/e0");
  EXPECT_EQ(space.RightIri(pair), "http://r/x0");
}

TEST_F(FeatureSpaceTest, PairsInRangeFindsByScore) {
  FeatureSpace space = Build();
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  // Exact matches have score 1.0.
  std::vector<PairId> exact = space.PairsInRange(name, 0.95, 1.05);
  EXPECT_GE(exact.size(), 2u);
  for (PairId pair : exact) {
    EXPECT_DOUBLE_EQ(space.pair(pair).features.Get(name), 1.0);
  }
}

TEST_F(FeatureSpaceTest, PairsInRangeEmptyForUnknownFeature) {
  FeatureSpace space = Build();
  EXPECT_TRUE(space.PairsInRange(9999, 0.0, 1.0).empty());
}

TEST_F(FeatureSpaceTest, PairsInRangeRespectsBounds) {
  FeatureSpace space = Build();
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  EXPECT_TRUE(space.PairsInRange(name, 0.0, 0.1).empty());
  std::vector<PairId> all = space.PairsInRange(name, 0.0, 1.0);
  std::vector<PairId> none = space.PairsInRange(name, 1.01, 2.0);
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(all.empty());
}

TEST_F(FeatureSpaceTest, HighThetaFiltersEverythingWeak) {
  FeatureSpace space = Build(/*theta=*/0.99);
  // Only the two exact-match pairs survive.
  EXPECT_EQ(space.pair_count(), 2u);
}

TEST_F(FeatureSpaceTest, SubsetOfSubjects) {
  FeatureSpaceOptions options;
  std::vector<rdf::TermId> one_left = {left_.Subjects()[0]};
  FeatureSpace space = FeatureSpace::Build(left_, one_left, right_,
                                           right_.Subjects(), &catalog_,
                                           options);
  EXPECT_EQ(space.total_pair_count(), 2u);
  EXPECT_EQ(space.left_entities().size(), 1u);
}

TEST_F(FeatureSpaceTest, PairsInRangeBoundsAreInclusive) {
  FeatureSpace space = Build();
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  // Both exact-match pairs score exactly 1.0: a degenerate [1.0, 1.0] band
  // must include them (lo and hi are both inclusive).
  std::vector<PairId> at_boundary = space.PairsInRange(name, 1.0, 1.0);
  EXPECT_EQ(at_boundary.size(), 2u);
  // Nudging lo above / hi below the score excludes them.
  EXPECT_TRUE(space.PairsInRange(name, std::nextafter(1.0, 2.0), 2.0).empty());
  EXPECT_TRUE(
      space.PairsInRange(name, 0.9, std::nextafter(1.0, 0.0)).empty());
}

TEST_F(FeatureSpaceTest, PairsInRangeEqualScoresTieBreakByPairId) {
  FeatureSpace space = Build();
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  std::vector<PairId> ties = space.PairsInRange(name, 1.0, 1.0);
  ASSERT_EQ(ties.size(), 2u);
  // Equal scores are ordered by ascending PairId (the ScoreEntry
  // tie-break), so the range result is deterministic.
  EXPECT_LT(ties[0], ties[1]);
  EXPECT_DOUBLE_EQ(space.pair(ties[0]).features.Get(name), 1.0);
  EXPECT_DOUBLE_EQ(space.pair(ties[1]).features.Get(name), 1.0);
}

TEST_F(FeatureSpaceTest, ScoredPairCountsExhaustiveAndBlocked) {
  FeatureSpaceOptions exhaustive;
  exhaustive.blocking.enabled = false;
  FeatureSpace space = FeatureSpace::Build(
      left_, left_.Subjects(), right_, right_.Subjects(), &catalog_,
      exhaustive);
  EXPECT_EQ(space.scored_pair_count(), space.total_pair_count());
  EXPECT_EQ(space.pruned_pair_count(), 0u);

  FeatureSpace blocked = Build();
  EXPECT_LE(blocked.scored_pair_count(), blocked.total_pair_count());
  // "Completely Other" shares no block with either right entity.
  EXPECT_GT(blocked.pruned_pair_count(), 0u);
}

TEST_F(FeatureSpaceTest, RangeQueryMatchesLinearScan) {
  FeatureSpace space = Build(/*theta=*/0.1);
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  for (double lo : {0.0, 0.2, 0.5, 0.9}) {
    double hi = lo + 0.3;
    std::vector<PairId> indexed = space.PairsInRange(name, lo, hi);
    size_t scanned = 0;
    for (PairId id = 0; id < space.pair_count(); ++id) {
      double score = space.pair(id).features.Get(name);
      if (score >= lo && score <= hi && score > 0.0) ++scanned;
    }
    EXPECT_EQ(indexed.size(), scanned) << "band [" << lo << "," << hi << "]";
  }
}

TEST_F(FeatureSpaceTest, PairsInRangeSpanMatchesVectorOverload) {
  FeatureSpace space = Build(/*theta=*/0.1);
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  for (double lo : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    double hi = lo + 0.3;
    FeatureSpace::ScoreSpan span = space.PairsInRangeSpan(name, lo, hi);
    std::vector<PairId> expected = space.PairsInRange(name, lo, hi);
    ASSERT_EQ(span.size(), expected.size())
        << "band [" << lo << "," << hi << "]";
    for (size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i].pair, expected[i]);
      double score = space.pair(span[i].pair).features.Get(name);
      EXPECT_DOUBLE_EQ(span[i].score, score);
      EXPECT_GE(span[i].score, lo);
      EXPECT_LE(span[i].score, hi);
    }
  }
}

TEST_F(FeatureSpaceTest, PairsInRangeSpanEmptyCases) {
  FeatureSpace space = Build();
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  EXPECT_TRUE(space.PairsInRangeSpan(9999, 0.0, 1.0).empty());
  EXPECT_TRUE(space.PairsInRangeSpan(name, 1.01, 2.0).empty());
  // An inverted band is empty, not undefined.
  EXPECT_TRUE(space.PairsInRangeSpan(name, 1.0, 0.5).empty());
  EXPECT_EQ(space.PairsInRangeSpan(name, 1.0, 0.5).size(), 0u);
}

TEST_F(FeatureSpaceTest, PairsInRangeScratchOverwritesPreviousResult) {
  FeatureSpace space = Build(/*theta=*/0.1);
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  std::vector<PairId> scratch;
  space.PairsInRange(name, 0.0, 1.0, &scratch);
  EXPECT_EQ(scratch, space.PairsInRange(name, 0.0, 1.0));
  // A second probe into the same buffer replaces, never appends.
  space.PairsInRange(name, 1.0, 1.0, &scratch);
  EXPECT_EQ(scratch, space.PairsInRange(name, 1.0, 1.0));
  space.PairsInRange(name, 2.0, 3.0, &scratch);
  EXPECT_TRUE(scratch.empty());
}

TEST_F(FeatureSpaceTest, ScoreIndexIsSortedByScoreThenPairId) {
  FeatureSpace space = Build(/*theta=*/0.1);
  for (FeatureId feature = 0; feature < catalog_.size(); ++feature) {
    FeatureSpace::ScoreSpan span =
        space.PairsInRangeSpan(feature, -1.0, 2.0);
    for (size_t i = 1; i < span.size(); ++i) {
      EXPECT_LT(span[i - 1], span[i])
          << "feature " << feature << " entry " << i;
    }
    // Every indexed score is a real, positive feature value of its pair.
    for (const ScoreEntry& entry : span) {
      EXPECT_FALSE(std::isnan(entry.score));
      EXPECT_GT(entry.score, 0.0);
      EXPECT_DOUBLE_EQ(entry.score,
                       space.pair(entry.pair).features.Get(feature));
    }
  }
}

}  // namespace
}  // namespace alex::core
