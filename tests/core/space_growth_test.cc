// Differential oracle for feature-space frontier growth: after the stores
// grow, FeatureSpace::Grow in incremental mode (pending-sidecar score
// entries, deferred arena compaction) must yield the same logical space —
// same PairIds, Fingerprint(), range answers, FindPair answers — as rebuild
// mode, and both must match a from-scratch Build over the grown stores.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/alex_engine.h"
#include "core/feature_space.h"
#include "linking/link.h"
#include "rdf/triple_store.h"

namespace alex::core {
namespace {

using rdf::Term;
using rdf::TripleStore;

constexpr const char* kFirst[] = {"Ada",  "Alan",    "Grace",  "Edsger",
                                  "John", "Barbara", "Donald", "Edith"};
constexpr const char* kLast[] = {"Lovelace", "Turing", "Hopper", "Dijkstra"};

std::string NameFor(int n) {
  return std::string(kFirst[n % 8]) + " " + kLast[(n / 8) % 4];
}

struct Stores {
  TripleStore left{"l"};
  TripleStore right{"r"};
};

void AddLeftEntity(Stores* stores, int n) {
  const std::string iri = "http://l/e" + std::to_string(n);
  stores->left.Add(Term::Iri(iri), Term::Iri("http://l/name"),
                   Term::StringLiteral(NameFor(n)));
  stores->left.Add(Term::Iri(iri), Term::Iri("http://l/age"),
                   Term::StringLiteral(std::to_string(20 + n % 30)));
}

void AddRightEntity(Stores* stores, int n) {
  const std::string iri = "http://r/x" + std::to_string(n);
  stores->right.Add(Term::Iri(iri), Term::Iri("http://r/label"),
                    Term::StringLiteral(NameFor(n)));
  stores->right.Add(Term::Iri(iri), Term::Iri("http://r/years"),
                    Term::StringLiteral(std::to_string(20 + n % 30)));
}

// Base population: 8 lefts, 6 rights with overlapping names so plenty of
// pairs clear θ = 0.2.
Stores MakeBaseStores() {
  Stores stores;
  for (int n = 0; n < 8; ++n) AddLeftEntity(&stores, n);
  for (int n = 0; n < 12; n += 2) AddRightEntity(&stores, n);
  return stores;
}

FeatureSpaceOptions MakeOptions(size_t compaction_threshold) {
  FeatureSpaceOptions options;
  options.theta = 0.2;
  options.compaction_threshold = compaction_threshold;
  return options;
}

// Appends the entities that joined `right` since the context last covered
// it, then extends the blocking index — incrementally (AddRights) or by a
// fresh Build (the rebuild twin). Mirrors AlexEngine::IngestTriples'
// handling of its owned right context.
void ExtendContext(const std::shared_ptr<const RightContext>& ctx,
                   const TripleStore& right,
                   const FeatureSpaceOptions& options, bool rebuild) {
  auto* mut = const_cast<RightContext*>(ctx.get());
  const size_t old_count = mut->entities.size();
  std::vector<rdf::TermId> subjects = right.Subjects();
  for (size_t i = old_count; i < subjects.size(); ++i) {
    mut->entities.push_back(
        PrepareEntity(right, subjects[i], options.max_attributes));
  }
  if (rebuild) {
    mut->index =
        BlockingIndex::Build(mut->entities, options.blocking,
                             options.similarity);
  } else {
    mut->index.AddRights(mut->entities, old_count);
  }
}

std::vector<rdf::TermId> SubjectSuffix(const TripleStore& store,
                                       size_t old_count) {
  std::vector<rdf::TermId> subjects = store.Subjects();
  return std::vector<rdf::TermId>(subjects.begin() + old_count,
                                  subjects.end());
}

void ExpectSameRangeAnswers(const FeatureSpace& a, const FeatureSpace& b,
                            size_t num_features, const std::string& context) {
  for (FeatureId feature = 0; feature < num_features; ++feature) {
    for (double lo : {-1.0, 0.0, 0.3, 0.6}) {
      for (double width : {0.2, 0.5, 2.0}) {
        ASSERT_EQ(a.PairsInRange(feature, lo, lo + width),
                  b.PairsInRange(feature, lo, lo + width))
            << context << " feature " << feature << " band [" << lo << ","
            << lo + width << "]";
      }
    }
  }
}

// FindPair against an oracle built from pair(): every PairId, grown ones
// included, round-trips through its IRIs; every other (left, right) of the
// space's entities, which θ-filtering or blocking dropped, and every unknown
// IRI answers kInvalidPairId.
void ExpectFindPairMatchesPairs(const FeatureSpace& space,
                                const std::string& context) {
  std::map<std::pair<uint32_t, uint32_t>, PairId> ids;
  for (PairId id = 0; id < space.pair_count(); ++id) {
    ASSERT_EQ(space.FindPair(space.LeftIri(id), space.RightIri(id)), id)
        << context;
    ids[{space.pair(id).left_index, space.pair(id).right_index}] = id;
  }
  size_t dropped = 0;
  for (uint32_t l = 0; l < space.left_entities().size(); ++l) {
    for (uint32_t r = 0; r < space.right_entities().size(); ++r) {
      if (ids.count({l, r}) != 0) continue;
      ++dropped;
      EXPECT_EQ(space.FindPair(space.left_entities()[l].iri,
                               space.right_entities()[r].iri),
                kInvalidPairId)
          << context << " left " << l << " right " << r;
    }
  }
  EXPECT_GT(dropped, 0u) << context;
  EXPECT_EQ(space.FindPair("http://l/unknown", space.RightIri(0)),
            kInvalidPairId)
      << context;
  EXPECT_EQ(space.FindPair(space.LeftIri(0), "http://r/unknown"),
            kInvalidPairId)
      << context;
}

// PairId-order-independent view of a space: IRIs -> feature-key scores
// (same idea as the blocked-vs-exhaustive comparison in blocking_test).
using PairScores =
    std::map<std::pair<std::string, std::string>,
             std::map<std::pair<std::string, std::string>, double>>;

PairScores Flatten(const FeatureSpace& space) {
  PairScores out;
  for (PairId id = 0; id < space.pair_count(); ++id) {
    auto& scores = out[{space.LeftIri(id), space.RightIri(id)}];
    for (const auto& [feature, score] : space.pair(id).features) {
      FeatureKey key = space.catalog()->Key(feature);
      scores[{key.left_predicate, key.right_predicate}] = score;
    }
  }
  return out;
}

// One epoch of store growth shared by both twins: two new lefts, two new
// rights, names drawn from the same cyclic pool as the base.
void GrowStores(Stores* stores, int epoch) {
  AddLeftEntity(stores, 8 + 2 * epoch);
  AddLeftEntity(stores, 9 + 2 * epoch);
  AddRightEntity(stores, 1 + 2 * epoch);  // odd ids: new on the right
  AddRightEntity(stores, 20 + 2 * epoch);
}

TEST(SpaceGrowthTest, IncrementalGrowthMatchesRebuildAcrossThresholds) {
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    Stores stores = MakeBaseStores();
    FeatureSpaceOptions options = MakeOptions(threshold);

    std::vector<rdf::TermId> left_subjects = stores.left.Subjects();
    auto ctx_inc = RightContext::Prepare(stores.right,
                                         stores.right.Subjects(), options);
    auto ctx_reb = RightContext::Prepare(stores.right,
                                         stores.right.Subjects(), options);
    FeatureCatalog cat_inc, cat_reb;
    FeatureSpace inc = FeatureSpace::Build(stores.left, left_subjects,
                                           ctx_inc, &cat_inc, options);
    FeatureSpace reb = FeatureSpace::Build(stores.left, left_subjects,
                                           ctx_reb, &cat_reb, options);
    ASSERT_GT(inc.pair_count(), 0u);
    ASSERT_EQ(inc.Fingerprint(), reb.Fingerprint());

    size_t total_overflow = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      const size_t old_left_count = stores.left.Subjects().size();
      const size_t old_right_count = ctx_inc->entities.size();
      GrowStores(&stores, epoch);

      ExtendContext(ctx_inc, stores.right, options, /*rebuild=*/false);
      ExtendContext(ctx_reb, stores.right, options, /*rebuild=*/true);
      ASSERT_EQ(ctx_inc->index.Fingerprint(), ctx_reb->index.Fingerprint());

      std::vector<rdf::TermId> new_lefts =
          SubjectSuffix(stores.left, old_left_count);
      ASSERT_EQ(new_lefts.size(), 2u);

      FeatureSpace::GrowthResult inc_result =
          inc.Grow(stores.left, new_lefts, nullptr, old_right_count, &cat_inc,
                   options, /*rebuild_indexes=*/false);
      FeatureSpace::GrowthResult reb_result =
          reb.Grow(stores.left, new_lefts, nullptr, old_right_count, &cat_reb,
                   options, /*rebuild_indexes=*/true);

      const std::string context = "epoch " + std::to_string(epoch);
      EXPECT_EQ(inc_result.new_pairs, reb_result.new_pairs) << context;
      EXPECT_GT(inc_result.new_pairs, 0u) << context;
      EXPECT_EQ(reb_result.overflow_entries, 0u) << context;
      total_overflow += inc_result.overflow_entries;

      ASSERT_EQ(inc.pair_count(), reb.pair_count()) << context;
      ASSERT_EQ(cat_inc.size(), cat_reb.size()) << context;
      EXPECT_EQ(inc.Fingerprint(), reb.Fingerprint()) << context;
      // PairId identity, not just logical equality: both modes must append
      // pairs in the same canonical (left, right) order.
      for (PairId id = 0; id < inc.pair_count(); ++id) {
        ASSERT_EQ(inc.LeftIri(id), reb.LeftIri(id)) << context << " " << id;
        ASSERT_EQ(inc.RightIri(id), reb.RightIri(id)) << context << " " << id;
      }
      ExpectSameRangeAnswers(inc, reb, cat_inc.size(), context);
      ExpectFindPairMatchesPairs(inc, context + " incremental");
      ExpectFindPairMatchesPairs(reb, context + " rebuild");
    }
    // Incremental growth routes entries through the pending sidecars.
    EXPECT_GT(total_overflow, 0u);

    // Episode-boundary arena compaction folds the growth back into the CSR
    // without changing the logical space.
    const uint64_t before = inc.Fingerprint();
    ASSERT_GT(inc.grown_entry_count(), 0u);
    inc.MaybeCompactArena();
    EXPECT_EQ(inc.Fingerprint(), before);
    ExpectSameRangeAnswers(inc, reb, cat_inc.size(), "after compaction");
    if (threshold == 0) {
      EXPECT_EQ(inc.grown_entry_count(), 0u);  // the fold ran
    }
  }
}

TEST(SpaceGrowthTest, GrownSpaceLogicallyMatchesFromScratchBuild) {
  Stores stores = MakeBaseStores();
  FeatureSpaceOptions options = MakeOptions(32);

  auto ctx = RightContext::Prepare(stores.right, stores.right.Subjects(),
                                   options);
  FeatureCatalog catalog;
  FeatureSpace grown = FeatureSpace::Build(stores.left, stores.left.Subjects(),
                                           ctx, &catalog, options);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const size_t old_left_count = stores.left.Subjects().size();
    const size_t old_right_count = ctx->entities.size();
    GrowStores(&stores, epoch);
    ExtendContext(ctx, stores.right, options, /*rebuild=*/false);
    grown.Grow(stores.left, SubjectSuffix(stores.left, old_left_count),
               nullptr, old_right_count, &catalog, options,
               /*rebuild_indexes=*/false);
  }

  // A from-scratch Build over the grown stores enumerates pairs in a
  // different PairId order, so compare the PairId-independent projection.
  FeatureCatalog fresh_catalog;
  FeatureSpace fresh = FeatureSpace::Build(
      stores.left, stores.left.Subjects(), stores.right,
      stores.right.Subjects(), &fresh_catalog, options);
  EXPECT_EQ(grown.pair_count(), fresh.pair_count());
  EXPECT_EQ(Flatten(grown), Flatten(fresh));
}

TEST(SpaceGrowthTest, EmptyGrowthIsNoOp) {
  Stores stores = MakeBaseStores();
  FeatureSpaceOptions options = MakeOptions(32);
  auto ctx = RightContext::Prepare(stores.right, stores.right.Subjects(),
                                   options);
  FeatureCatalog catalog;
  FeatureSpace space = FeatureSpace::Build(
      stores.left, stores.left.Subjects(), ctx, &catalog, options);
  const uint64_t before = space.Fingerprint();

  FeatureSpace::GrowthResult result =
      space.Grow(stores.left, {}, nullptr, ctx->entities.size(), &catalog,
                 options, /*rebuild_indexes=*/false);
  EXPECT_EQ(result.new_pairs, 0u);
  EXPECT_EQ(result.overflow_entries, 0u);
  EXPECT_EQ(space.Fingerprint(), before);
}

TEST(SpaceGrowthTest, ChurnAfterGrowthStaysDifferentiallyCorrect) {
  // Grown pairs must behave exactly like built pairs under link churn:
  // flip the liveness of a mix of old and new pairs on the incremental
  // twin, whose new entries are still pending, and on the rebuild twin,
  // whose arena holds them, and compare.
  Stores stores = MakeBaseStores();
  FeatureSpaceOptions options = MakeOptions(1);
  auto ctx_a = RightContext::Prepare(stores.right, stores.right.Subjects(),
                                     options);
  auto ctx_b = RightContext::Prepare(stores.right, stores.right.Subjects(),
                                     options);
  FeatureCatalog cat_a, cat_b;
  FeatureSpace inc = FeatureSpace::Build(
      stores.left, stores.left.Subjects(), ctx_a, &cat_a, options);
  FeatureSpace reb = FeatureSpace::Build(
      stores.left, stores.left.Subjects(), ctx_b, &cat_b, options);

  const size_t old_left_count = stores.left.Subjects().size();
  const size_t old_right_count = ctx_a->entities.size();
  const PairId first_new_pair = static_cast<PairId>(inc.pair_count());
  GrowStores(&stores, 0);
  ExtendContext(ctx_a, stores.right, options, false);
  ExtendContext(ctx_b, stores.right, options, true);
  std::vector<rdf::TermId> new_lefts =
      SubjectSuffix(stores.left, old_left_count);
  inc.Grow(stores.left, new_lefts, nullptr, old_right_count, &cat_a, options,
           false);
  reb.Grow(stores.left, new_lefts, nullptr, old_right_count, &cat_b, options,
           true);
  ASSERT_GT(inc.pair_count(), first_new_pair);

  ASSERT_GT(inc.grown_entry_count(), 0u);
  ASSERT_EQ(reb.grown_entry_count(), 0u);

  // Remove one old and one new pair, then resurrect them.
  std::vector<PairId> touched = {0, first_new_pair};
  inc.SetLiveness({}, touched);
  reb.SetLiveness({}, touched);
  EXPECT_EQ(inc.Fingerprint(), reb.Fingerprint());
  ExpectSameRangeAnswers(inc, reb, cat_a.size(), "after removal");

  inc.SetLiveness(touched, {});
  reb.SetLiveness(touched, {});
  EXPECT_EQ(inc.Fingerprint(), reb.Fingerprint());
  ExpectSameRangeAnswers(inc, reb, cat_a.size(), "after resurrection");
}

TEST(SpaceGrowthTest, FeedbackOnGrownPairReachesItsPartition) {
  // A link from a newly ingested left to an old right is a pair that Grow
  // appended to its partition's space: negative feedback on it must remove
  // it from that partition's candidates, not fall through to the spaceless
  // extras.
  for (bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental ingest" : "rebuild ingest");
    Stores stores;
    auto add_entities = [&stores](int n) {
      const std::string id = std::to_string(n);
      stores.left.Add(Term::Iri("http://l/e" + id),
                      Term::Iri("http://l/name"),
                      Term::StringLiteral("Same Name"));
      stores.right.Add(Term::Iri("http://r/x" + id),
                       Term::Iri("http://r/label"),
                       Term::StringLiteral("Same Name"));
    };
    for (int n = 0; n < 4; ++n) add_entities(n);
    AlexOptions options;
    options.num_partitions = 2;
    options.num_threads = 1;
    options.incremental_ingest = incremental;
    AlexEngine engine(&stores.left, &stores.right, options);
    const linking::Link seed{"http://l/e0", "http://r/x0", 1.0};
    ASSERT_TRUE(engine.Initialize({seed}).ok());
    for (int n = 4; n < 6; ++n) add_entities(n);
    ASSERT_TRUE(engine.IngestTriples().ok());

    // Lefts are dealt round-robin, so e4 joins e0's partition 0.
    const linking::Link grown{"http://l/e4", "http://r/x1", 1.0};
    const PartitionAlex& partition = engine.partitions()[0];
    const FeatureSpace& space = partition.space();
    PairId pair = kInvalidPairId;
    for (PairId id = 0; id < space.pair_count(); ++id) {
      if (space.LeftIri(id) == grown.left &&
          space.RightIri(id) == grown.right) {
        pair = id;
      }
    }
    ASSERT_NE(pair, kInvalidPairId);
    EXPECT_EQ(space.FindPair(grown.left, grown.right), pair);

    engine.BeginExternalEpisode();
    // Approving the seed explores its partition, grown pairs included.
    engine.ApplyLinkFeedback(seed, true);
    ASSERT_TRUE(partition.candidates().Contains(pair));
    const size_t candidates = engine.CandidateCount();
    EXPECT_TRUE(engine.ApplyLinkFeedback(grown, false).removed);
    EXPECT_FALSE(partition.candidates().Contains(pair));
    EXPECT_EQ(engine.CandidateCount(), candidates - 1);
    engine.EndExternalEpisode();
  }
}

}  // namespace
}  // namespace alex::core
