// Differential oracle for incremental feature-space maintenance: random
// add/remove churn applied through ApplyDelta must leave the space
// logically identical — Fingerprint(), PairsInRange answers, and
// PairsInRangeSpan contents — to applying the same liveness flags and
// rebuilding the score index from scratch, across compaction thresholds.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feature_space.h"

namespace alex::core {
namespace {

using rdf::Term;
using rdf::TripleStore;

// A store pair rich enough for non-trivial churn: left/right names drawn
// from overlapping pools so many cross pairs clear θ with varied scores.
class IncrementalSpaceTest : public ::testing::Test {
 protected:
  IncrementalSpaceTest() : left_("l"), right_("r") {
    const char* first[] = {"Ada",  "Alan",  "Grace", "Edsger",
                           "John", "Barbara", "Donald", "Edith"};
    const char* last[] = {"Lovelace", "Turing", "Hopper", "Dijkstra"};
    int n = 0;
    for (const char* f : first) {
      for (const char* l : last) {
        std::string name = std::string(f) + " " + l;
        std::string left_iri = "http://l/e" + std::to_string(n);
        left_.Add(Term::Iri(left_iri), Term::Iri("http://l/name"),
                  Term::StringLiteral(name));
        left_.Add(Term::Iri(left_iri), Term::Iri("http://l/age"),
                  Term::StringLiteral(std::to_string(20 + n)));
        if (n % 2 == 0) {
          std::string right_iri = "http://r/x" + std::to_string(n);
          right_.Add(Term::Iri(right_iri), Term::Iri("http://r/label"),
                     Term::StringLiteral(name));
          right_.Add(Term::Iri(right_iri), Term::Iri("http://r/years"),
                     Term::StringLiteral(std::to_string(20 + n)));
        }
        ++n;
      }
    }
  }

  FeatureSpace Build(size_t compaction_threshold) {
    FeatureSpaceOptions options;
    options.theta = 0.2;
    options.compaction_threshold = compaction_threshold;
    return FeatureSpace::Build(left_, left_.Subjects(), right_,
                               right_.Subjects(), &catalog_, options);
  }

  // Asserts `actual` (maintained incrementally) is logically identical to
  // `expected` (same liveness, freshly rebuilt indexes).
  void ExpectLogicallyEqual(const FeatureSpace& actual,
                            const FeatureSpace& expected,
                            const std::string& context) {
    ASSERT_EQ(actual.live_pair_count(), expected.live_pair_count())
        << context;
    EXPECT_EQ(actual.Fingerprint(), expected.Fingerprint()) << context;
    for (FeatureId feature = 0; feature < catalog_.size(); ++feature) {
      for (double lo : {-1.0, 0.0, 0.25, 0.5, 0.8, 1.0}) {
        for (double width : {0.1, 0.4, 2.0}) {
          const double hi = lo + width;
          std::vector<PairId> got = actual.PairsInRange(feature, lo, hi);
          std::vector<PairId> want = expected.PairsInRange(feature, lo, hi);
          ASSERT_EQ(got, want) << context << " feature " << feature
                               << " band [" << lo << "," << hi << "]";
          // Span contents: same entries, in (score, pair) order.
          FeatureSpace::ScoreSpan got_span =
              actual.PairsInRangeSpan(feature, lo, hi);
          FeatureSpace::ScoreSpan want_span =
              expected.PairsInRangeSpan(feature, lo, hi);
          auto git = got_span.begin();
          auto wit = want_span.begin();
          while (wit != want_span.end()) {
            ASSERT_NE(git, got_span.end()) << context;
            EXPECT_EQ((*git).pair, (*wit).pair) << context;
            EXPECT_DOUBLE_EQ((*git).score, (*wit).score) << context;
            ++git;
            ++wit;
          }
          EXPECT_EQ(git, got_span.end()) << context;
        }
      }
    }
  }

  TripleStore left_;
  TripleStore right_;
  FeatureCatalog catalog_;
};

// The core randomized differential: K random deltas against a from-scratch
// rebuild, across compaction thresholds {0, 1, default}.
TEST_F(IncrementalSpaceTest, RandomChurnMatchesRebuild) {
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}}) {
    FeatureSpace incremental = Build(threshold);
    FeatureSpace rebuilt = Build(threshold);
    ASSERT_GE(incremental.pair_count(), 30u)
        << "fixture too small for meaningful churn";
    ASSERT_EQ(incremental.Fingerprint(), rebuilt.Fingerprint());

    Rng rng(0xc0ffee + threshold);
    std::vector<uint8_t> live(incremental.pair_count(), 1);
    for (int round = 0; round < 40; ++round) {
      // Draw distinct pair ids, then toggle each one's membership.
      std::vector<PairId> touched;
      const size_t moves = 1 + rng.NextBounded(8);
      for (size_t m = 0; m < moves; ++m) {
        PairId id = static_cast<PairId>(rng.NextBounded(live.size()));
        if (std::find(touched.begin(), touched.end(), id) == touched.end()) {
          touched.push_back(id);
        }
      }
      std::vector<PairId> added;
      std::vector<PairId> removed;
      for (PairId id : touched) {
        (live[id] ? removed : added).push_back(id);
        live[id] ^= 1;
      }
      std::sort(added.begin(), added.end());
      std::sort(removed.begin(), removed.end());

      incremental.ApplyDelta(added, removed);
      rebuilt.SetLiveness(added, removed);
      rebuilt.RebuildIndexes();
      ExpectLogicallyEqual(
          incremental, rebuilt,
          "threshold " + std::to_string(threshold) + " round " +
              std::to_string(round));
    }
    // Thresholds actually change physical behavior: eager compaction fires
    // under threshold 0 for this workload.
    if (threshold == 0) {
      EXPECT_GT(incremental.compaction_count(), 0u);
    }
  }
}

TEST_F(IncrementalSpaceTest, ApplyDeltaIsIdempotent) {
  FeatureSpace space = Build(0);
  FeatureSpace oracle = Build(0);
  ASSERT_GE(space.pair_count(), 4u);
  std::vector<PairId> ids = {0, 1, 2, 3};

  space.ApplyDelta({}, ids);
  space.ApplyDelta({}, ids);  // removing dead pairs is a no-op
  oracle.SetLiveness({}, ids);
  oracle.RebuildIndexes();
  ExpectLogicallyEqual(space, oracle, "double remove");

  space.ApplyDelta(ids, {});
  space.ApplyDelta(ids, {});  // adding live pairs is a no-op
  oracle.SetLiveness(ids, {});
  oracle.RebuildIndexes();
  ExpectLogicallyEqual(space, oracle, "double add");
}

TEST_F(IncrementalSpaceTest, EmptyDeltaIsNoOp) {
  FeatureSpace space = Build(32);
  const uint64_t before = space.Fingerprint();
  space.ApplyDelta({}, {});
  EXPECT_EQ(space.Fingerprint(), before);
  EXPECT_EQ(space.compaction_count(), 0u);
}

TEST_F(IncrementalSpaceTest, RemoveAllThenResurrectAllRestoresFingerprint) {
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}}) {
    FeatureSpace space = Build(threshold);
    FeatureSpace pristine = Build(threshold);
    const uint64_t initial = space.Fingerprint();
    std::vector<PairId> all(space.pair_count());
    for (PairId id = 0; id < all.size(); ++id) all[id] = id;

    space.ApplyDelta({}, all);
    EXPECT_EQ(space.live_pair_count(), 0u);
    for (FeatureId feature = 0; feature < catalog_.size(); ++feature) {
      EXPECT_TRUE(space.PairsInRange(feature, -1.0, 2.0).empty());
    }
    EXPECT_NE(space.Fingerprint(), initial);

    space.ApplyDelta(all, {});
    EXPECT_EQ(space.live_pair_count(), space.pair_count());
    EXPECT_EQ(space.Fingerprint(), initial);
    ExpectLogicallyEqual(space, pristine,
                         "full cycle threshold " + std::to_string(threshold));
  }
}

TEST_F(IncrementalSpaceTest, RemovedPairStaysResolvableButNotLive) {
  FeatureSpace space = Build(32);
  ASSERT_FALSE(space.pair_count() == 0);
  const PairId id = 0;
  const std::string left = space.LeftIri(id);
  const std::string right = space.RightIri(id);
  space.ApplyDelta({}, {id});
  // FindPair and the pair accessors are membership-agnostic: the engine
  // still resolves feedback on links that are current candidates (and thus
  // outside the explorable frontier).
  EXPECT_EQ(space.FindPair(left, right), id);
  EXPECT_FALSE(space.IsLive(id));
  EXPECT_EQ(space.LeftIri(id), left);
  for (const auto& [feature, score] : space.pair(id).features) {
    for (PairId in_band : space.PairsInRange(feature, score, score)) {
      EXPECT_NE(in_band, id);
    }
  }
}

TEST_F(IncrementalSpaceTest, MarkAllLiveResetsChurn) {
  FeatureSpace space = Build(0);
  FeatureSpace pristine = Build(0);
  Rng rng(99);
  std::vector<PairId> removed;
  for (PairId id = 0; id < space.pair_count(); ++id) {
    if (rng.NextBool(0.5)) removed.push_back(id);
  }
  space.ApplyDelta({}, removed);
  space.MarkAllLive();
  EXPECT_EQ(space.tombstone_count(), 0u);
  EXPECT_EQ(space.pending_entry_count(), 0u);
  ExpectLogicallyEqual(space, pristine, "after MarkAllLive");
}

TEST_F(IncrementalSpaceTest, RemapFeaturesMovesWholeBuckets) {
  // Remapping a fresh space moves each score bucket whole. A twin whose
  // score index is rebuilt from the remapped feature sets must answer every
  // range query identically, and churn afterwards must still agree.
  FeatureSpace moved = Build(0);
  FeatureSpace rebuilt = Build(0);
  ASSERT_GE(catalog_.size(), 2u);
  ASSERT_GE(moved.pair_count(), 2u);
  std::vector<FeatureId> reversed(catalog_.size());
  for (FeatureId f = 0; f < reversed.size(); ++f) {
    reversed[f] = static_cast<FeatureId>(reversed.size() - 1 - f);
  }
  moved.RemapFeatures(reversed);
  rebuilt.RemapFeatures(reversed);
  rebuilt.RebuildIndexes();
  ExpectLogicallyEqual(moved, rebuilt, "after remap");
  EXPECT_EQ(moved.MemoryBytes(), rebuilt.MemoryBytes());

  moved.ApplyDelta({}, {0});
  rebuilt.SetLiveness({}, {0});
  rebuilt.RebuildIndexes();
  EXPECT_FALSE(moved.IsLive(0));
  ExpectLogicallyEqual(moved, rebuilt, "after churn");
}

TEST_F(IncrementalSpaceTest, RemapFeaturesRejectsAChurnedSpace) {
  FeatureSpace space = Build(0);
  ASSERT_GE(space.pair_count(), 1u);
  space.ApplyDelta({}, {0});
  std::vector<FeatureId> identity(catalog_.size());
  std::iota(identity.begin(), identity.end(), FeatureId{0});
  EXPECT_DEATH(space.RemapFeatures(identity), "freshly built space");
}

}  // namespace
}  // namespace alex::core
