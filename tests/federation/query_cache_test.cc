#include "federation/query_cache.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/profiles.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "linking/paris.h"
#include "serving/serving_loop.h"
#include "sparql/compiler.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using linking::Link;
using rdf::Term;
using rdf::TripleStore;

bool SameAnswers(const std::vector<FederatedAnswer>& a,
                 const std::vector<FederatedAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].binding != b[i].binding) return false;
    if (a[i].links_used.size() != b[i].links_used.size()) return false;
    for (size_t j = 0; j < a[i].links_used.size(); ++j) {
      if (!(a[i].links_used[j] == b[i].links_used[j])) return false;
    }
  }
  return true;
}

FederatedAnswer MakeAnswer(const std::string& var, const std::string& value) {
  FederatedAnswer answer;
  answer.binding[var] = Term::StringLiteral(value);
  return answer;
}

TEST(QueryFingerprintTest, DistinguishesTextAndRowCap) {
  const uint64_t a = QueryFingerprint("SELECT ?x WHERE { ?x ?p ?o }", 100);
  EXPECT_EQ(a, QueryFingerprint("SELECT ?x WHERE { ?x ?p ?o }", 100));
  EXPECT_NE(a, QueryFingerprint("SELECT ?y WHERE { ?y ?p ?o }", 100));
  EXPECT_NE(a, QueryFingerprint("SELECT ?x WHERE { ?x ?p ?o }", 99));
}

TEST(FederatedQueryCacheTest, LookupInsertRoundTrip) {
  FederatedQueryCache cache;
  const uint64_t fp = QueryFingerprint("q", 10);
  EXPECT_EQ(cache.Lookup(fp), nullptr);
  cache.Insert(fp, {MakeAnswer("x", "v")}, {"http://ex/a"});
  const auto hit = cache.Lookup(fp);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ(hit->at(0).binding.at("x").lexical(), "v");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The epoch delta of staging `links`: the IRIs their carry-forward
// invalidates.
std::vector<std::string> DeltaOf(const std::vector<Link>& links) {
  StagedLinkSet staged;
  for (const Link& link : links) staged.Stage(link, true);
  return staged.EpochDeltaIris();
}

TEST(FederatedQueryCacheTest, InvalidationIsExact) {
  FederatedQueryCache cache;
  const uint64_t fp_a = QueryFingerprint("about-a", 10);
  const uint64_t fp_b = QueryFingerprint("about-b", 10);
  const uint64_t fp_ab = QueryFingerprint("about-both", 10);
  cache.Insert(fp_a, {MakeAnswer("x", "a")}, {"http://ex/a"});
  cache.Insert(fp_b, {MakeAnswer("x", "b")}, {"http://ex/b"});
  cache.Insert(fp_ab, {MakeAnswer("x", "ab")},
               {"http://ex/a", "http://ex/b"});
  ASSERT_EQ(cache.size(), 3u);

  // A link touching IRI a (as left endpoint) drops exactly the entries that
  // consulted a; the b-only entry is replay-exact and must survive.
  FederatedQueryCache left_touched(
      cache, DeltaOf({Link{"http://ex/a", "http://other/z", 1.0}}));
  EXPECT_EQ(left_touched.size(), 1u);
  EXPECT_EQ(left_touched.Lookup(fp_a), nullptr);
  EXPECT_NE(left_touched.Lookup(fp_b), nullptr);
  EXPECT_EQ(left_touched.Lookup(fp_ab), nullptr);
  EXPECT_EQ(left_touched.stats().invalidated, 2u);

  // The right endpoint invalidates too.
  FederatedQueryCache right_touched(
      left_touched, DeltaOf({Link{"http://other/z", "http://ex/b", 1.0}}));
  EXPECT_EQ(right_touched.size(), 0u);

  // A link touching nothing consulted is a no-op.
  FederatedQueryCache untouched(
      cache,
      DeltaOf({Link{"http://unrelated/1", "http://unrelated/2", 1.0}}));
  EXPECT_EQ(untouched.size(), 3u);
  EXPECT_EQ(untouched.stats().invalidated, 0u);
}

TEST(FederatedQueryCacheTest, InsertReplacesAndReindexes) {
  FederatedQueryCache cache;
  const uint64_t fp = QueryFingerprint("q", 10);
  cache.Insert(fp, {MakeAnswer("x", "old")}, {"http://ex/old"});
  cache.Insert(fp, {MakeAnswer("x", "new")}, {"http://ex/new"});
  ASSERT_EQ(cache.size(), 1u);
  // The old consulted IRI must no longer invalidate the replaced entry.
  FederatedQueryCache old_touched(
      cache, DeltaOf({Link{"http://ex/old", "http://other/z", 1.0}}));
  ASSERT_NE(old_touched.Lookup(fp), nullptr);
  EXPECT_EQ(old_touched.Lookup(fp)->at(0).binding.at("x").lexical(), "new");
  FederatedQueryCache new_touched(
      cache, DeltaOf({Link{"http://ex/new", "http://other/z", 1.0}}));
  EXPECT_EQ(new_touched.Lookup(fp), nullptr);
}

TEST(FederatedQueryCacheTest, TakeStatsResetsCountersKeepsEntries) {
  FederatedQueryCache cache;
  const uint64_t fp = QueryFingerprint("q", 10);
  cache.Lookup(fp);
  cache.Insert(fp, {}, {"http://ex/a"});
  cache.Lookup(fp);
  FederatedQueryCache::Stats stats = cache.TakeStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.size(), 1u);  // entries survive the counter reset
}

TEST(FederatedQueryCacheTest, SnapshotHandleClonesMinusDelta) {
  FederatedQueryCache parent;
  const uint64_t fp_a = QueryFingerprint("about-a", 10);
  const uint64_t fp_b = QueryFingerprint("about-b", 10);
  parent.Insert(fp_a, {MakeAnswer("x", "a")}, {"http://ex/a"});
  parent.Insert(fp_b, {MakeAnswer("x", "b")}, {"http://ex/b"});

  const std::vector<std::string> delta_iris = {"http://ex/a", "http://other/z"};
  FederatedQueryCache child(parent, delta_iris);
  // The parent keeps everything; the child carries forward exactly the
  // entries the staged delta leaves replay-exact.
  EXPECT_EQ(parent.size(), 2u);
  EXPECT_EQ(child.size(), 1u);
  EXPECT_EQ(child.Lookup(fp_a), nullptr);
  EXPECT_NE(child.Lookup(fp_b), nullptr);
  EXPECT_EQ(child.stats().invalidated, 1u);
}

// Carrying a cache forward by the epoch delta of its staged links follows
// the rule link by link: an entry survives if and only if none of its
// consulted IRIs is an endpoint of a staged link, and `invalidated` counts
// the entries dropped.
TEST(FederatedQueryCacheTest, CarryForwardByIrisMatchesLinkByLink) {
  constexpr int kIris = 30;
  auto left = [](uint64_t i) { return "http://left/" + std::to_string(i); };
  auto right = [](uint64_t i) { return "http://right/" + std::to_string(i); };
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    FederatedQueryCache parent;
    std::vector<std::pair<uint64_t, std::unordered_set<std::string>>>
        entries;
    for (int q = 0; q < 40; ++q) {
      const uint64_t fp = QueryFingerprint("q" + std::to_string(q), 10);
      std::unordered_set<std::string> consulted;
      const uint64_t size = rng.NextBounded(4);  // empty sets included
      for (uint64_t k = 0; k < size; ++k) {
        consulted.insert(rng.NextBool(0.5) ? left(rng.NextBounded(kIris))
                                           : right(rng.NextBounded(kIris)));
      }
      parent.Insert(fp, {MakeAnswer("x", std::to_string(q))}, consulted);
      entries.emplace_back(fp, std::move(consulted));
    }
    // A pair may be staged twice (say, an add and the remove that cancels
    // it); its endpoints still invalidate.
    StagedLinkSet staged;
    std::set<std::string> touched;
    const uint64_t links = rng.NextBounded(12);
    for (uint64_t k = 0; k < links; ++k) {
      const Link link{left(rng.NextBounded(kIris)),
                      right(rng.NextBounded(kIris)), 1.0};
      staged.Stage(link, true);
      if (rng.NextBool(0.2)) staged.Stage(link, false);
      touched.insert(link.left);
      touched.insert(link.right);
    }
    FederatedQueryCache carried(parent, staged.EpochDeltaIris());

    size_t survivors = 0;
    for (const auto& [fp, consulted] : entries) {
      bool survives = true;
      for (const std::string& iri : consulted) {
        if (touched.count(iri) > 0) survives = false;
      }
      survivors += survives ? 1 : 0;
      EXPECT_EQ(carried.Lookup(fp) != nullptr, survives) << "trial " << trial;
    }
    EXPECT_EQ(carried.size(), survivors);
    EXPECT_EQ(carried.stats().invalidated, entries.size() - survivors);
    EXPECT_EQ(parent.size(), entries.size());  // the parent is untouched
  }
}

TEST(FederatedQueryCacheTest, LookupResultSurvivesInvalidation) {
  auto cache = std::make_unique<FederatedQueryCache>();
  const uint64_t fp = QueryFingerprint("q", 10);
  cache->Insert(fp, {MakeAnswer("x", "v")}, {"http://ex/a"});
  const auto hit = cache->Lookup(fp);
  ASSERT_NE(hit, nullptr);
  // The next epoch dropping the entry, and the reader's own epoch retiring
  // with its cache, must not pull the answers out from under a reader that
  // already holds them.
  FederatedQueryCache next(
      *cache, DeltaOf({Link{"http://ex/a", "http://other/z", 1.0}}));
  EXPECT_EQ(next.size(), 0u);
  cache.reset();
  EXPECT_EQ(hit->at(0).binding.at("x").lexical(), "v");
}

// End-to-end: a cached ExecuteText returns the exact rows of the uncached
// run, is invalidated by exactly the relevant link change, and answers the
// changed query correctly afterwards.
class CachedEngineTest : public ::testing::Test {
 protected:
  CachedEngineTest() : dbpedia_("dbpedia"), nytimes_("nytimes") {
    dbpedia_.Add(Term::Iri("http://dbpedia.org/LeBron_James"),
                 Term::Iri("http://dbpedia.org/award"),
                 Term::StringLiteral("NBA MVP 2013"));
    dbpedia_.Add(Term::Iri("http://dbpedia.org/Kevin_Durant"),
                 Term::Iri("http://dbpedia.org/award"),
                 Term::StringLiteral("NBA MVP 2014"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/1"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/lebron"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/3"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/durant"));
    staged_.Stage(Link{"http://dbpedia.org/LeBron_James",
                       "http://nyt.com/person/lebron", 0.99},
                  true);
    links_ = staged_.Publish();
  }

  TripleStore dbpedia_;
  TripleStore nytimes_;
  StagedLinkSet staged_;
  std::shared_ptr<const LinkView> links_;  // the last published epoch
};

TEST_F(CachedEngineTest, HitReturnsIdenticalRowsAndInvalidationIsExact) {
  FederatedEngine engine({&dbpedia_, &nytimes_}, links_.get());
  FederatedQueryCache cache;
  engine.set_cache(&cache);

  const std::string lebron_q =
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2013\" . "
      "?article <http://nyt.com/about> ?player }";
  const std::string durant_q =
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2014\" . "
      "?article <http://nyt.com/about> ?player }";

  auto first = engine.ExecuteText(lebron_q);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->answers.size(), 1u);
  EXPECT_TRUE(first->complete);
  EXPECT_FALSE(first->from_cache);
  auto second = engine.ExecuteText(lebron_q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_TRUE(SameAnswers(first->answers, second->answers));
  EXPECT_EQ(cache.stats().hits, 1u);

  auto durant_before = engine.ExecuteText(durant_q);
  ASSERT_TRUE(durant_before.ok());
  EXPECT_TRUE(durant_before->answers.empty());
  EXPECT_EQ(cache.size(), 2u);

  // Publishing Durant's link must invalidate the Durant query (its
  // evaluator consulted Durant's neighborhood and found nothing) but NOT
  // the LeBron query, whose consulted neighborhoods are untouched.
  staged_.Stage(Link{"http://dbpedia.org/Kevin_Durant",
                     "http://nyt.com/person/durant", 1.0},
                true);
  FederatedQueryCache carried(cache, staged_.EpochDeltaIris());
  links_ = staged_.Publish();
  FederatedEngine next({&dbpedia_, &nytimes_}, links_.get());
  next.set_cache(&carried);
  EXPECT_NE(
      carried.Lookup(QueryFingerprint(lebron_q, FederatedOptions().max_rows)),
      nullptr);
  EXPECT_EQ(
      carried.Lookup(QueryFingerprint(durant_q, FederatedOptions().max_rows)),
      nullptr);

  auto durant_after = next.ExecuteText(durant_q);
  ASSERT_TRUE(durant_after.ok());
  ASSERT_EQ(durant_after->answers.size(), 1u);
  EXPECT_EQ(durant_after->answers[0].binding.at("article").lexical(),
            "http://nyt.com/article/3");
}

// Precondition for the ROADMAP plan-caching item: a CompiledQuery reused
// via ExecuteOptions::plan depends only on the (immutable) store — a link
// delta that invalidates the FederatedQueryCache entry must not change the
// rows a reused plan produces, so plans can be cached across link churn
// while only the federated result cache is invalidated.
TEST_F(CachedEngineTest, CompiledPlanReuseSurvivesLinkInvalidation) {
  FederatedEngine engine({&dbpedia_, &nytimes_}, links_.get());
  FederatedQueryCache cache;
  engine.set_cache(&cache);

  // Warm the federated cache with a query that consults LeBron's links.
  const std::string lebron_q =
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2013\" . "
      "?article <http://nyt.com/about> ?player }";
  auto fed_before = engine.ExecuteText(lebron_q);
  ASSERT_TRUE(fed_before.ok());
  const uint64_t fp = QueryFingerprint(lebron_q, FederatedOptions().max_rows);
  ASSERT_NE(cache.Lookup(fp), nullptr);

  // Compile a single-source query once and execute it through the reused
  // plan.
  const std::string text =
      "SELECT ?s ?o WHERE { ?s <http://dbpedia.org/award> ?o } ORDER BY ?s";
  Result<sparql::Query> parsed = sparql::ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  sparql::CompiledQuery plan = sparql::CompileQuery(*parsed, dbpedia_);
  sparql::ExecuteOptions exec_options;
  exec_options.plan = &plan;
  auto first = sparql::Execute(*parsed, dbpedia_, exec_options);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 2u);

  // A link delta touching LeBron invalidates exactly the cached federated
  // entry.
  staged_.Stage(Link{"http://dbpedia.org/LeBron_James",
                     "http://nyt.com/person/lebron2", 0.5},
                true);
  FederatedQueryCache carried(cache, staged_.EpochDeltaIris());
  links_ = staged_.Publish();
  FederatedEngine next({&dbpedia_, &nytimes_}, links_.get());
  next.set_cache(&carried);
  EXPECT_EQ(carried.Lookup(fp), nullptr);

  // The same plan object, executed again after the delta, returns identical
  // rows — including order.
  auto second = sparql::Execute(*parsed, dbpedia_, exec_options);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().size(), first.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_TRUE(first.value()[i] == second.value()[i]) << "row " << i;
  }

  // And the federated query re-executes (cache miss) to the same answers.
  auto fed_after = next.ExecuteText(lebron_q);
  ASSERT_TRUE(fed_after.ok());
  EXPECT_TRUE(SameAnswers(fed_before->answers, fed_after->answers));
}

// A result truncated by max_rows is incomplete and must never enter the
// cache: a later execution with the same fingerprint would otherwise be
// served the capped rows as if they were the full answer set.
TEST_F(CachedEngineTest, RowCappedResultIsIncompleteAndBypassesCache) {
  FederatedEngine engine({&dbpedia_, &nytimes_}, links_.get());
  FederatedQueryCache cache;
  engine.set_cache(&cache);
  const std::string text = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  FederatedOptions capped;
  capped.max_rows = 2;  // the full scan has more rows than this

  auto first = engine.ExecuteText(text, capped);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->answers.size(), 2u);
  EXPECT_TRUE(first->row_capped);
  EXPECT_FALSE(first->complete);
  EXPECT_EQ(cache.size(), 0u);  // never admitted

  // Re-execution misses the cache and recomputes identically.
  auto again = engine.ExecuteText(text, capped);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->from_cache);
  EXPECT_TRUE(SameAnswers(first->answers, again->answers));
  EXPECT_EQ(cache.stats().hits, 0u);

  // An uncapped run of the same query IS complete and gets cached (the
  // fingerprint includes max_rows, so the capped variant never aliases it).
  auto full = engine.ExecuteText(text);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->complete);
  EXPECT_FALSE(full->row_capped);
  EXPECT_GT(full->answers.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

// The query-driven series (the serving loop without reader streams) must be
// bitwise-identical with the cache on or off — the cache only removes
// redundant re-execution — and the cached run must actually hit once
// episodes repeat queries.
TEST(QueryDrivenCacheTest, SeriesIdenticalWithAndWithoutCache) {
  datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  auto run = [&](bool use_cache) {
    core::AlexOptions alex_options;
    alex_options.num_partitions = 2;
    alex_options.num_threads = 1;
    alex_options.episode_size = 60;
    alex_options.max_episodes = 6;
    core::AlexEngine engine(&world.left, &world.right, alex_options);
    EXPECT_TRUE(engine.Initialize(initial).ok());
    serving::ServingLoopOptions options;
    options.workload.num_queries = 80;
    options.use_query_cache = use_cache;
    return serving::RunServingExperiment(&engine, world, truth, options)
        ->experiment;
  };

  eval::ExperimentResult cached = run(true);
  eval::ExperimentResult uncached = run(false);

  auto check_same_series = [](const eval::ExperimentResult& a,
                              const eval::ExperimentResult& b) {
    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t i = 0; i < a.series.size(); ++i) {
      const core::EpisodeStats& sa = a.series[i].stats;
      const core::EpisodeStats& sb = b.series[i].stats;
      EXPECT_EQ(sa.feedback_items, sb.feedback_items) << "episode " << i;
      EXPECT_EQ(sa.positive_feedback, sb.positive_feedback) << "episode " << i;
      EXPECT_EQ(sa.negative_feedback, sb.negative_feedback) << "episode " << i;
      EXPECT_EQ(sa.candidate_count, sb.candidate_count) << "episode " << i;
      EXPECT_EQ(a.series[i].quality.precision, b.series[i].quality.precision)
          << "episode " << i;
      EXPECT_EQ(a.series[i].quality.recall, b.series[i].quality.recall)
          << "episode " << i;
    }
  };
  check_same_series(cached, uncached);

  size_t total_hits = 0;
  size_t uncached_hits = 0;
  for (size_t i = 1; i < cached.series.size(); ++i) {
    total_hits += cached.series[i].stats.query_cache_hits;
    uncached_hits += uncached.series[i].stats.query_cache_hits;
  }
  if (cached.series.size() > 2) {
    EXPECT_GT(total_hits, 0u);  // repeated episodes must reuse results
  }
  EXPECT_EQ(uncached_hits, 0u);
}

// Same property for the sparql::PlanCache: parsed queries reused across
// episodes must not change a single number in the series, and the cached
// run must actually hit once query texts repeat.
TEST(QueryDrivenCacheTest, PlanCacheSeriesIdenticalOnOrOff) {
  datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  auto run = [&](bool use_plan_cache) {
    core::AlexOptions alex_options;
    alex_options.num_partitions = 2;
    alex_options.num_threads = 1;
    alex_options.episode_size = 60;
    alex_options.max_episodes = 6;
    core::AlexEngine engine(&world.left, &world.right, alex_options);
    EXPECT_TRUE(engine.Initialize(initial).ok());
    serving::ServingLoopOptions options;
    options.workload.num_queries = 80;
    options.use_plan_cache = use_plan_cache;
    return serving::RunServingExperiment(&engine, world, truth, options)
        ->experiment;
  };

  eval::ExperimentResult with_cache = run(true);
  eval::ExperimentResult without_cache = run(false);

  auto check_same_series = [](const eval::ExperimentResult& a,
                              const eval::ExperimentResult& b) {
    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t i = 0; i < a.series.size(); ++i) {
      const core::EpisodeStats& sa = a.series[i].stats;
      const core::EpisodeStats& sb = b.series[i].stats;
      EXPECT_EQ(sa.feedback_items, sb.feedback_items) << "episode " << i;
      EXPECT_EQ(sa.positive_feedback, sb.positive_feedback) << "episode " << i;
      EXPECT_EQ(sa.negative_feedback, sb.negative_feedback) << "episode " << i;
      EXPECT_EQ(sa.candidate_count, sb.candidate_count) << "episode " << i;
      EXPECT_EQ(a.series[i].quality.precision, b.series[i].quality.precision)
          << "episode " << i;
      EXPECT_EQ(a.series[i].quality.recall, b.series[i].quality.recall)
          << "episode " << i;
    }
  };
  check_same_series(with_cache, without_cache);

  size_t cached_hits = 0;
  size_t uncached_hits = 0;
  for (size_t i = 1; i < with_cache.series.size(); ++i) {
    cached_hits += with_cache.series[i].stats.plan_cache_hits;
    uncached_hits += without_cache.series[i].stats.plan_cache_hits;
  }
  if (with_cache.series.size() > 2) {
    EXPECT_GT(cached_hits, 0u);  // repeated texts must reuse parses
  }
  EXPECT_EQ(uncached_hits, 0u);
}

}  // namespace
}  // namespace alex::fed
