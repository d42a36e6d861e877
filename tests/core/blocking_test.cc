#include "core/blocking.h"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/feature_space.h"
#include "datagen/profiles.h"
#include "datagen/world.h"

namespace alex::core {
namespace {

PreparedValue Prepare(const char* text) {
  return PrepareValue(rdf::Term::StringLiteral(text));
}

std::vector<std::string> KeysOf(const PreparedValue& value,
                                bool probe_neighbors) {
  std::vector<std::string> keys;
  AppendBlockKeys(value, BlockingOptions{}, sim::SimilarityOptions{},
                  probe_neighbors, &keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

bool ShareKey(const PreparedValue& probe, const PreparedValue& indexed) {
  std::vector<std::string> a = KeysOf(probe, /*probe_neighbors=*/true);
  std::vector<std::string> b = KeysOf(indexed, /*probe_neighbors=*/false);
  std::vector<std::string> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  return !shared.empty();
}

TEST(BlockKeysTest, IdenticalValuesShareKeys) {
  EXPECT_TRUE(ShareKey(Prepare("Ada Lovelace"), Prepare("Ada Lovelace")));
  EXPECT_TRUE(ShareKey(Prepare(""), Prepare("")));
  EXPECT_TRUE(ShareKey(Prepare("42"), Prepare("42")));
}

TEST(BlockKeysTest, SharedTokenSharesKeys) {
  // Any token-Jaccard score > 0 must collide via the token channel.
  EXPECT_TRUE(ShareKey(Prepare("Ada Lovelace"), Prepare("Ada Byron")));
  EXPECT_TRUE(ShareKey(Prepare("alpha beta gamma"), Prepare("gamma delta")));
}

TEST(BlockKeysTest, SingleEditTyposShareKeys) {
  // "smith" / "smyth" share no trigram; the single-deletion channel
  // (both emit the variant "smth") must cover them.
  EXPECT_TRUE(ShareKey(Prepare("smith"), Prepare("smyth")));
  // Deletion typo.
  EXPECT_TRUE(ShareKey(Prepare("smith"), Prepare("smih")));
  // Insertion typo.
  EXPECT_TRUE(ShareKey(Prepare("smith"), Prepare("smiith")));
  // Longer words with one typo still share trigrams.
  EXPECT_TRUE(ShareKey(Prepare("lovelace"), Prepare("lovelqce")));
}

TEST(BlockKeysTest, NearbyNumbersShareKeysUnderTolerance) {
  auto num = [](int64_t value) {
    return PrepareValue(rdf::Term::IntegerLiteral(value));
  };
  // Default numeric_tolerance scores these > 0, so they must collide.
  EXPECT_TRUE(ShareKey(num(1000), num(1001)));
  EXPECT_TRUE(ShareKey(num(999), num(1001)));
  EXPECT_TRUE(ShareKey(num(5), num(5)));
  EXPECT_TRUE(ShareKey(num(0), num(1)));
  EXPECT_TRUE(ShareKey(num(-1000), num(-1001)));
  // Values straddling the ±1 magnitude boundary.
  EXPECT_TRUE(ShareKey(num(-1), num(1)));
}

TEST(BlockKeysTest, NearbyDatesShareKeys) {
  auto date = [](const char* text) {
    return PrepareValue(rdf::Term::DateLiteral(text));
  };
  EXPECT_TRUE(ShareKey(date("1969-07-20"), date("1969-07-21")));
  EXPECT_TRUE(ShareKey(date("1969-12-31"), date("1970-01-01")));
}

TEST(BlockingIndexTest, CandidatesAreSortedUniqueAndComplete) {
  std::vector<PreparedEntity> rights(3);
  auto add_attr = [](PreparedEntity* e, const char* pred, const char* text) {
    PreparedAttribute attr;
    attr.predicate = pred;
    attr.value = Prepare(text);
    e->attributes.push_back(std::move(attr));
  };
  add_attr(&rights[0], "p", "Ada Lovelace");
  add_attr(&rights[1], "p", "Zyx Wvu");
  add_attr(&rights[2], "p", "Ada Byron");

  BlockingIndex index =
      BlockingIndex::Build(rights, BlockingOptions{}, sim::SimilarityOptions{});
  EXPECT_FALSE(index.empty());
  EXPECT_GT(index.block_count(), 0u);
  EXPECT_GT(index.posting_count(), 0u);

  PreparedEntity probe;
  add_attr(&probe, "q", "Ada");
  std::vector<uint32_t> candidates;
  index.Candidates(probe, &candidates);
  // "Ada" occurs in entities 0 and 2; both must be candidates, 1 must not
  // (no shared token, trigram, deletion variant, or value).
  EXPECT_EQ(candidates, (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
}

// ---------------------------------------------------------------------------
// Blocked == exhaustive on generated worlds.

// Everything observable about a space, keyed by IRIs and FeatureKeys so the
// comparison is independent of PairId / FeatureId assignment order.
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

void ExpectSameSpace(const FeatureSpace& blocked,
                     const FeatureSpace& exhaustive) {
  EXPECT_EQ(blocked.pair_count(), exhaustive.pair_count());
  PairScores a = Flatten(blocked);
  PairScores b = Flatten(exhaustive);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [iris, scores] : a) {
    auto it = b.find(iris);
    ASSERT_NE(it, b.end()) << "missing pair " << iris.first << " / "
                           << iris.second;
    ASSERT_EQ(scores.size(), it->second.size())
        << "feature count differs for " << iris.first;
    for (const auto& [key, score] : scores) {
      auto jt = it->second.find(key);
      ASSERT_NE(jt, it->second.end())
          << "missing feature (" << key.first << ", " << key.second << ")";
      EXPECT_DOUBLE_EQ(score, jt->second)
          << "score differs for (" << key.first << ", " << key.second << ")";
    }
  }
}

// The blocked build on 1 (no pool), 2, 4 and 8 workers against the
// exhaustive build.
void CheckBlockedEqualsExhaustive(const datagen::WorldProfile& profile) {
  datagen::GeneratedWorld world = datagen::Generate(profile);
  std::vector<rdf::TermId> left_subjects = world.left.Subjects();
  std::vector<rdf::TermId> right_subjects = world.right.Subjects();

  FeatureSpaceOptions blocked_options;
  FeatureCatalog blocked_catalog;
  FeatureSpace blocked =
      FeatureSpace::Build(world.left, left_subjects, world.right,
                          right_subjects, &blocked_catalog, blocked_options);

  FeatureSpaceOptions exhaustive_options;
  exhaustive_options.blocking.enabled = false;
  FeatureCatalog exhaustive_catalog;
  FeatureSpace exhaustive = FeatureSpace::Build(
      world.left, left_subjects, world.right, right_subjects,
      &exhaustive_catalog, exhaustive_options);

  EXPECT_EQ(exhaustive.scored_pair_count(), exhaustive.total_pair_count());
  EXPECT_LT(blocked.scored_pair_count(), blocked.total_pair_count());
  EXPECT_EQ(blocked.pruned_pair_count(),
            blocked.total_pair_count() - blocked.scored_pair_count());
  ExpectSameSpace(blocked, exhaustive);

  auto right_context =
      RightContext::Prepare(world.right, right_subjects, blocked_options);
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    FeatureCatalog catalog;
    ExpectSameSpace(FeatureSpace::Build(world.left, left_subjects,
                                        right_context, &catalog,
                                        blocked_options, &pool),
                    exhaustive);
  }
}

TEST(BlockedBuildTest, MatchesExhaustiveOnTinyWorld) {
  CheckBlockedEqualsExhaustive(datagen::TinyTestProfile());
}

TEST(BlockedBuildTest, MatchesExhaustiveOnNoisyMediaWorld) {
  // The dbpedia_nytimes regime (heavy right-side noise), scaled down so the
  // exhaustive reference stays test-sized.
  datagen::WorldProfile profile = datagen::DbpediaNytimesProfile();
  profile.overlap_entities = 150;
  profile.left_only_entities = 100;
  profile.right_only_entities = 60;
  CheckBlockedEqualsExhaustive(profile);
}

TEST(BlockedBuildTest, MatchesExhaustiveOnConfusableWorld) {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  profile.confusable_pairs = 20;
  profile.seed = 99;
  CheckBlockedEqualsExhaustive(profile);
}

TEST(ParallelBuildTest, OutputIdenticalAcrossThreadCounts) {
  datagen::GeneratedWorld world = datagen::Generate(datagen::TinyTestProfile());
  std::vector<rdf::TermId> left_subjects = world.left.Subjects();
  FeatureSpaceOptions options;
  auto right_context = RightContext::Prepare(
      world.right, world.right.Subjects(), options);

  FeatureCatalog serial_catalog;
  FeatureSpace serial = FeatureSpace::Build(
      world.left, left_subjects, right_context, &serial_catalog, options);
  PairScores expected = Flatten(serial);

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    FeatureCatalog catalog;
    FeatureSpace space = FeatureSpace::Build(
        world.left, left_subjects, right_context, &catalog, options, &pool);
    // Pair order (and thus PairIds) must not depend on the thread count.
    ASSERT_EQ(space.pair_count(), serial.pair_count());
    for (PairId id = 0; id < space.pair_count(); ++id) {
      EXPECT_EQ(space.LeftIri(id), serial.LeftIri(id)) << "pair " << id;
      EXPECT_EQ(space.RightIri(id), serial.RightIri(id)) << "pair " << id;
    }
    PairScores actual = Flatten(space);
    EXPECT_EQ(actual, expected) << threads << " threads";
  }
}

TEST(ParallelBlockingBuildTest, FingerprintIdenticalAcrossThreadCounts) {
  // The blocking index bytes (hash table slots + postings) must be a pure
  // function of the entities, never of the worker count: a noisy world with
  // plenty of shared tokens exercises the chunked extract/merge path.
  datagen::WorldProfile profile = datagen::DbpediaNytimesProfile();
  profile.overlap_entities = 120;
  profile.left_only_entities = 40;
  profile.right_only_entities = 60;
  datagen::GeneratedWorld world = datagen::Generate(profile);
  std::vector<PreparedEntity> rights;
  for (rdf::TermId subject : world.right.Subjects()) {
    rights.push_back(PrepareEntity(world.right, subject));
  }

  BlockingIndex serial = BlockingIndex::Build(rights, BlockingOptions{},
                                              sim::SimilarityOptions{});
  const uint64_t expected = serial.Fingerprint();
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    BlockingIndex parallel = BlockingIndex::Build(
        rights, BlockingOptions{}, sim::SimilarityOptions{}, &pool);
    EXPECT_EQ(parallel.block_count(), serial.block_count())
        << threads << " threads";
    EXPECT_EQ(parallel.posting_count(), serial.posting_count())
        << threads << " threads";
    EXPECT_EQ(parallel.Fingerprint(), expected) << threads << " threads";
    // Identical bytes imply identical probes; spot-check a few entities.
    std::vector<uint32_t> from_serial, from_parallel;
    for (size_t i = 0; i < rights.size(); i += 17) {
      serial.Candidates(rights[i], &from_serial);
      parallel.Candidates(rights[i], &from_parallel);
      EXPECT_EQ(from_parallel, from_serial) << "probe " << i;
    }
  }
}

TEST(ParallelBlockingBuildTest, FingerprintDetectsContentChange) {
  std::vector<PreparedEntity> rights(2);
  auto add_attr = [](PreparedEntity* e, const char* pred, const char* text) {
    PreparedAttribute attr;
    attr.predicate = pred;
    attr.value = Prepare(text);
    e->attributes.push_back(std::move(attr));
  };
  add_attr(&rights[0], "p", "Ada Lovelace");
  add_attr(&rights[1], "p", "Alan Turing");
  BlockingIndex a = BlockingIndex::Build(rights, BlockingOptions{},
                                         sim::SimilarityOptions{});
  add_attr(&rights[1], "p", "Enigma");
  BlockingIndex b = BlockingIndex::Build(rights, BlockingOptions{},
                                         sim::SimilarityOptions{});
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(CatalogMemoTest, MemoizedInterningMatchesCatalog) {
  FeatureCatalog catalog;
  CatalogMemo memo(&catalog);
  FeatureId a = memo.Intern({"p1", "q1"});
  FeatureId b = memo.Intern({"p2", "q2"});
  EXPECT_NE(a, b);
  // Cache hits return the same id without growing the catalog.
  EXPECT_EQ(memo.Intern({"p1", "q1"}), a);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(memo.cache_size(), 2u);
  // Direct catalog interning agrees with the memo.
  EXPECT_EQ(catalog.Intern({"p1", "q1"}), a);
}

TEST(CatalogMemoTest, ConcurrentMemosAgreeOnIds) {
  FeatureCatalog catalog;
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<std::vector<FeatureId>> ids(kThreads,
                                          std::vector<FeatureId>(kKeys));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&catalog, &ids, t] {
      CatalogMemo memo(&catalog);
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          // Interleave orders per thread so first-seen races are exercised.
          int key = (t % 2 == 0) ? k : kKeys - 1 - k;
          ids[t][key] =
              memo.Intern({"left" + std::to_string(key), "right"});
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(catalog.size(), static_cast<size_t>(kKeys));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  // Every id maps back to its key.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(catalog.Key(ids[0][k]).left_predicate,
              "left" + std::to_string(k));
  }
}

}  // namespace
}  // namespace alex::core
