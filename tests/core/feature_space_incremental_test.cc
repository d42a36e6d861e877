// The explorable frontier against a brute-force oracle. A space's frontier
// is its liveness flags, and SetLiveness is its one write: after any mix of
// flag flips, ingest growth (Grow's pending sidecars) and arena folds
// (MaybeCompactArena), every feature's PairsInRangeSpan must yield exactly
// what a scan of pair(id).features over the live pairs yields, sorted by
// (score, PairId), across compaction thresholds.
#include <algorithm>
#include <limits>
#include <memory>
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// A store pair rich enough for non-trivial churn: left/right names drawn
// from overlapping pools so many cross pairs clear θ with varied scores.
class IncrementalSpaceTest : public ::testing::Test {
 protected:
  IncrementalSpaceTest() { ResetStores(); }

  // 32 lefts and the 16 even-numbered rights, before any growth.
  void ResetStores() {
    left_ = TripleStore("l");
    right_ = TripleStore("r");
    for (int n = 0; n < 32; ++n) {
      AddLeft(n);
      if (n % 2 == 0) AddRight(n);
    }
  }

  static std::string NameFor(int n) {
    static const char* const kFirst[] = {"Ada",    "Alan",    "Grace",
                                         "Edsger", "John",    "Barbara",
                                         "Donald", "Edith"};
    static const char* const kLast[] = {"Lovelace", "Turing", "Hopper",
                                        "Dijkstra"};
    return std::string(kFirst[(n / 4) % 8]) + " " + kLast[n % 4];
  }
  void AddLeft(int n) {
    const std::string iri = "http://l/e" + std::to_string(n);
    left_.Add(Term::Iri(iri), Term::Iri("http://l/name"),
              Term::StringLiteral(NameFor(n)));
    left_.Add(Term::Iri(iri), Term::Iri("http://l/age"),
              Term::StringLiteral(std::to_string(20 + n)));
  }
  void AddRight(int n) {
    const std::string iri = "http://r/x" + std::to_string(n);
    right_.Add(Term::Iri(iri), Term::Iri("http://r/label"),
               Term::StringLiteral(NameFor(n)));
    right_.Add(Term::Iri(iri), Term::Iri("http://r/years"),
               Term::StringLiteral(std::to_string(20 + n)));
  }

  static FeatureSpaceOptions Options(size_t compaction_threshold) {
    FeatureSpaceOptions options;
    options.theta = 0.2;
    options.compaction_threshold = compaction_threshold;
    return options;
  }

  // A space without growth; the compaction threshold shapes only the
  // growth fold, so these spaces take the default.
  FeatureSpace Build() {
    return FeatureSpace::Build(left_, left_.Subjects(), right_,
                               right_.Subjects(), &catalog_, Options(32));
  }

  // One ingest epoch: two new lefts and two new rights join the stores,
  // then `context` (incrementally, as AlexEngine::IngestTriples extends
  // its own) and `space`, whose new entries land in pending sidecars.
  // Returns the first new PairId.
  PairId GrowEpoch(int epoch, RightContext* context, FeatureSpace* space,
                   const FeatureSpaceOptions& options) {
    const size_t old_lefts = left_.Subjects().size();
    const size_t old_rights = context->entities.size();
    const PairId first_new = static_cast<PairId>(space->pair_count());
    AddLeft(32 + 2 * epoch);
    AddLeft(33 + 2 * epoch);
    AddRight(1 + 2 * epoch);  // odd ids: new on the right
    AddRight(64 + 2 * epoch);
    const std::vector<rdf::TermId> rights = right_.Subjects();
    for (size_t i = old_rights; i < rights.size(); ++i) {
      context->entities.push_back(
          PrepareEntity(right_, rights[i], kMaxAttributes));
    }
    context->index.AddRights(context->entities, old_rights);
    std::vector<rdf::TermId> new_lefts = left_.Subjects();
    new_lefts.erase(new_lefts.begin(), new_lefts.begin() + old_lefts);
    space->Grow(left_, new_lefts, nullptr, old_rights, &catalog_, options,
                /*rebuild_indexes=*/false);
    return first_new;
  }

  // The oracle: every live pair that carries `feature` with a score in
  // [lo, hi], as (score, PairId), sorted by (score, pair).
  static std::vector<ScoreEntry> ScanFrontier(const FeatureSpace& space,
                                              FeatureId feature, double lo,
                                              double hi) {
    std::vector<ScoreEntry> out;
    for (PairId id = 0; id < space.pair_count(); ++id) {
      if (!space.IsLive(id)) continue;
      for (const auto& [f, score] : space.pair(id).features) {
        if (f == feature && lo <= score && score <= hi) {
          out.push_back({score, id});
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static void ExpectBandMatchesScan(const FeatureSpace& space,
                                    FeatureId feature, double lo, double hi,
                                    const std::string& context) {
    const std::string where = context + " feature " +
                              std::to_string(feature) + " band [" +
                              std::to_string(lo) + "," + std::to_string(hi) +
                              "]";
    std::vector<ScoreEntry> got;
    for (const ScoreEntry entry : space.PairsInRangeSpan(feature, lo, hi)) {
      got.push_back(entry);
    }
    const std::vector<ScoreEntry> want = ScanFrontier(space, feature, lo, hi);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].pair, want[i].pair) << where << " entry " << i;
      ASSERT_EQ(got[i].score, want[i].score) << where << " entry " << i;
    }
    std::vector<PairId> want_ids;
    for (const ScoreEntry& entry : want) want_ids.push_back(entry.pair);
    ASSERT_EQ(space.PairsInRange(feature, lo, hi), want_ids) << where;
  }

  // Every feature's span against the scan: the full range, fixed bands,
  // and, with `rng`, a random band plus a band around (and one exactly at)
  // a random pair's score, the way an exploration action probes.
  void ExpectMatchesScan(const FeatureSpace& space, const std::string& context,
                         Rng* rng = nullptr) {
    size_t live = 0;
    for (PairId id = 0; id < space.pair_count(); ++id) {
      live += space.IsLive(id) ? 1 : 0;
    }
    ASSERT_EQ(space.live_pair_count(), live) << context;
    for (FeatureId feature = 0; feature < catalog_.size(); ++feature) {
      ExpectBandMatchesScan(space, feature, -kInf, kInf, context);
      for (double lo : {0.0, 0.25, 0.5, 0.8}) {
        for (double width : {0.1, 0.4}) {
          ExpectBandMatchesScan(space, feature, lo, lo + width, context);
        }
      }
      if (rng == nullptr) continue;
      const double lo = rng->NextDouble() * 1.2 - 0.1;
      ExpectBandMatchesScan(space, feature, lo, lo + rng->NextDouble() * 0.5,
                            context);
    }
    if (rng == nullptr || space.pair_count() == 0) return;
    const PairId id =
        static_cast<PairId>(rng->NextBounded(space.pair_count()));
    for (const auto& [feature, score] : space.pair(id).features) {
      ExpectBandMatchesScan(space, feature, score - 0.05, score + 0.05,
                            context);
      ExpectBandMatchesScan(space, feature, score, score, context);
    }
  }

  TripleStore left_{"l"};
  TripleStore right_{"r"};
  FeatureCatalog catalog_;
};

// The randomized oracle check: random liveness flips interleaved with
// ingest growth and episode-boundary arena folds, across compaction
// thresholds {0, 1, default}. After every step each feature's span equals
// the scan. Each growth epoch also takes one freshly grown pair off the
// frontier before any fold, while its entries sit in the pending stream.
TEST_F(IncrementalSpaceTest, RandomChurnAndGrowthMatchBruteForceScan) {
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    ResetStores();
    const FeatureSpaceOptions options = Options(threshold);
    auto context = std::const_pointer_cast<RightContext>(
        RightContext::Prepare(right_, right_.Subjects(), options));
    FeatureSpace space = FeatureSpace::Build(left_, left_.Subjects(), context,
                                             &catalog_, options);
    ASSERT_GE(space.pair_count(), 30u)
        << "fixture too small for meaningful churn";
    ExpectMatchesScan(space, "built");

    Rng rng(0xc0ffee + threshold);
    std::vector<uint8_t> live(space.pair_count(), 1);
    int epoch = 0;
    size_t folds = 0;
    size_t pending_across_boundary = 0;
    for (int round = 0; round < 60; ++round) {
      const std::string where = "round " + std::to_string(round);
      if (round % 12 == 3) {
        const PairId first_new = GrowEpoch(epoch++, context.get(), &space,
                                           options);
        ASSERT_GT(space.pair_count(), first_new) << where;
        live.resize(space.pair_count(), 1);
        ExpectMatchesScan(space, where + " grown", &rng);
        // A grown pair becomes a candidate before the fold: it leaves the
        // frontier while its entries are still pending.
        ASSERT_GT(space.grown_entry_count(), 0u) << where;
        space.SetLiveness({}, {first_new});
        live[first_new] = 0;
        ExpectMatchesScan(space, where + " grown pair taken", &rng);
      }
      // The episode boundary: fold growth, then flip the epoch's delta.
      const bool pending = space.grown_entry_count() > 0;
      space.MaybeCompactArena();
      if (space.grown_entry_count() > 0) {
        ++pending_across_boundary;
      } else if (pending) {
        ++folds;
      }
      std::vector<PairId> touched;
      const size_t moves = 1 + rng.NextBounded(8);
      for (size_t m = 0; m < moves; ++m) {
        const PairId id = static_cast<PairId>(rng.NextBounded(live.size()));
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
      space.SetLiveness(added, removed);
      for (PairId id = 0; id < live.size(); ++id) {
        ASSERT_EQ(space.IsLive(id), live[id] != 0) << where << " pair " << id;
      }
      ExpectMatchesScan(space, where, &rng);
    }
    EXPECT_EQ(epoch, 5);
    // Both index states were probed under churn: growth folded into the
    // arena at threshold 0, and still pending across boundaries at 32.
    if (threshold == 0) {
      EXPECT_GT(folds, 0u);
    }
    if (threshold == 32) {
      EXPECT_GT(pending_across_boundary, 0u);
    }
  }
}

TEST_F(IncrementalSpaceTest, SetLivenessIsIdempotent) {
  FeatureSpace space = Build();
  ASSERT_GE(space.pair_count(), 4u);
  const std::vector<PairId> ids = {0, 1, 2, 3};

  space.SetLiveness({}, ids);
  space.SetLiveness({}, ids);  // removing non-live pairs is a no-op
  EXPECT_EQ(space.live_pair_count(), space.pair_count() - ids.size());
  ExpectMatchesScan(space, "double remove");

  space.SetLiveness(ids, {});
  space.SetLiveness(ids, {});  // adding live pairs is a no-op
  EXPECT_EQ(space.live_pair_count(), space.pair_count());
  ExpectMatchesScan(space, "double add");
}

TEST_F(IncrementalSpaceTest, EmptyDeltaIsNoOp) {
  FeatureSpace space = Build();
  const uint64_t before = space.Fingerprint();
  space.SetLiveness({}, {});
  EXPECT_EQ(space.Fingerprint(), before);
  EXPECT_EQ(space.live_pair_count(), space.pair_count());
}

TEST_F(IncrementalSpaceTest, RemoveAllThenResurrectAllRestoresFingerprint) {
  FeatureSpace space = Build();
  FeatureSpace pristine = Build();
  const uint64_t initial = space.Fingerprint();
  std::vector<PairId> all(space.pair_count());
  std::iota(all.begin(), all.end(), PairId{0});

  space.SetLiveness({}, all);
  EXPECT_EQ(space.live_pair_count(), 0u);
  for (FeatureId feature = 0; feature < catalog_.size(); ++feature) {
    EXPECT_TRUE(space.PairsInRange(feature, -1.0, 2.0).empty());
  }
  EXPECT_NE(space.Fingerprint(), initial);

  space.SetLiveness(all, {});
  EXPECT_EQ(space.live_pair_count(), space.pair_count());
  EXPECT_EQ(space.Fingerprint(), initial);
  EXPECT_EQ(space.Fingerprint(), pristine.Fingerprint());
  ExpectMatchesScan(space, "full cycle");
}

TEST_F(IncrementalSpaceTest, RemovedPairStaysResolvableButNotLive) {
  FeatureSpace space = Build();
  ASSERT_FALSE(space.pair_count() == 0);
  const PairId id = 0;
  const std::string left = space.LeftIri(id);
  const std::string right = space.RightIri(id);
  space.SetLiveness({}, {id});
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
  FeatureSpace space = Build();
  FeatureSpace pristine = Build();
  Rng rng(99);
  std::vector<PairId> removed;
  for (PairId id = 0; id < space.pair_count(); ++id) {
    if (rng.NextBool(0.5)) removed.push_back(id);
  }
  space.SetLiveness({}, removed);
  space.MarkAllLive();
  EXPECT_EQ(space.live_pair_count(), space.pair_count());
  EXPECT_EQ(space.Fingerprint(), pristine.Fingerprint());
  ExpectMatchesScan(space, "after MarkAllLive");
}

TEST_F(IncrementalSpaceTest, RemapFeaturesMovesWholeBuckets) {
  // Remapping a fresh space moves each score bucket whole: every range
  // query must equal the scan of the remapped feature sets, and churn
  // afterwards must still agree.
  FeatureSpace moved = Build();
  ASSERT_GE(catalog_.size(), 2u);
  ASSERT_GE(moved.pair_count(), 2u);
  std::vector<FeatureId> reversed(catalog_.size());
  for (FeatureId f = 0; f < reversed.size(); ++f) {
    reversed[f] = static_cast<FeatureId>(reversed.size() - 1 - f);
  }
  moved.RemapFeatures(reversed);
  ExpectMatchesScan(moved, "after remap");

  moved.SetLiveness({}, {0});
  EXPECT_FALSE(moved.IsLive(0));
  ExpectMatchesScan(moved, "after churn");
}

TEST_F(IncrementalSpaceTest, RemapFeaturesRejectsAChurnedSpace) {
  FeatureSpace space = Build();
  ASSERT_GE(space.pair_count(), 1u);
  space.SetLiveness({}, {0});
  std::vector<FeatureId> identity(catalog_.size());
  std::iota(identity.begin(), identity.end(), FeatureId{0});
  EXPECT_DEATH(space.RemapFeatures(identity), "freshly built space");
}

}  // namespace
}  // namespace alex::core
