#include "serving/serving_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/profiles.h"
#include "eval/query_workload.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "linking/paris.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "serving/serving_loop.h"

namespace alex::serving {
namespace {

using linking::Link;
using rdf::Term;

// Two tiny stores bridged by owl:sameAs links — the paper's §1 example
// shape. The serving engine is built over them with LeBron's link as the
// epoch-0 content.
class ServingEngineTest : public ::testing::Test {
 protected:
  ServingEngineTest() : dbpedia_("dbpedia"), nytimes_("nytimes") {
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
    // Warm the lazy store indexes before any concurrent access.
    (void)dbpedia_.size();
    (void)nytimes_.size();
  }

  ServingOptions Options() {
    ServingOptions options;
    options.sources = {&dbpedia_, &nytimes_};
    return options;
  }

  static Link LebronLink() {
    return Link{"http://dbpedia.org/LeBron_James",
                "http://nyt.com/person/lebron", 0.99};
  }
  static Link DurantLink() {
    return Link{"http://dbpedia.org/Kevin_Durant",
                "http://nyt.com/person/durant", 1.0};
  }
  static std::string AwardQuery(const std::string& award) {
    return "SELECT ?article WHERE { "
           "?player <http://dbpedia.org/award> \"" +
           award +
           "\" . "
           "?article <http://nyt.com/about> ?player }";
  }

  rdf::TripleStore dbpedia_;
  rdf::TripleStore nytimes_;
};

TEST_F(ServingEngineTest, PinnedEpochSurvivesPublish) {
  ServingEngine serving(Options(), std::vector<Link>{LebronLink()});
  std::shared_ptr<const EpochSnapshot> epoch0 = serving.Pin();
  ASSERT_NE(epoch0, nullptr);
  EXPECT_EQ(epoch0->epoch(), 0u);

  auto before = epoch0->ExecuteText(AwardQuery("NBA MVP 2013"));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->answers.size(), 1u);

  // The learner retracts LeBron's link and adds Durant's, then publishes.
  serving.StageLink(LebronLink(), false);
  serving.StageLink(DurantLink(), true);
  std::shared_ptr<const EpochSnapshot> epoch1 = serving.Publish();
  EXPECT_EQ(epoch1->epoch(), 1u);
  EXPECT_EQ(serving.Pin()->epoch(), 1u);

  // A query that pinned epoch 0 before the publish still sees epoch 0's
  // links — bitwise the same answers as before.
  auto pinned_after = epoch0->ExecuteText(AwardQuery("NBA MVP 2013"));
  ASSERT_TRUE(pinned_after.ok());
  ASSERT_EQ(pinned_after->answers.size(), 1u);
  EXPECT_EQ(HashAnswers(pinned_after->answers), HashAnswers(before->answers));
  auto pinned_durant = epoch0->ExecuteText(AwardQuery("NBA MVP 2014"));
  ASSERT_TRUE(pinned_durant.ok());
  EXPECT_TRUE(pinned_durant->answers.empty());

  // The new epoch sees the new membership.
  auto fresh_lebron = epoch1->ExecuteText(AwardQuery("NBA MVP 2013"));
  ASSERT_TRUE(fresh_lebron.ok());
  EXPECT_TRUE(fresh_lebron->answers.empty());
  auto fresh_durant = epoch1->ExecuteText(AwardQuery("NBA MVP 2014"));
  ASSERT_TRUE(fresh_durant.ok());
  EXPECT_EQ(fresh_durant->answers.size(), 1u);
}

TEST_F(ServingEngineTest, SnapshotsRetireExactlyWhenLastReaderDrains) {
  ServingEngine serving(Options(), std::vector<Link>{LebronLink()});
  EXPECT_EQ(serving.stats().snapshots_retired, 0u);

  std::shared_ptr<const EpochSnapshot> pinned = serving.Pin();  // epoch 0
  serving.StageLink(DurantLink(), true);
  (void)serving.Publish();  // epoch 1 current; epoch 0 alive through pin
  EXPECT_EQ(serving.stats().snapshots_retired, 0u);

  serving.StageLink(DurantLink(), false);
  (void)serving.Publish();  // epoch 2 current; epoch 1 had no readers
  EXPECT_EQ(serving.stats().snapshots_retired, 1u);

  // Epoch 0 must stay fully usable while pinned (ASan would flag a free).
  auto result = pinned->ExecuteText(AwardQuery("NBA MVP 2013"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 1u);

  pinned.reset();  // last reader drains -> epoch 0 retires now
  EXPECT_EQ(serving.stats().snapshots_retired, 2u);
  EXPECT_EQ(serving.stats().epochs_published, 3u);
  EXPECT_EQ(serving.stats().link_merges, 3u);  // every publish merges
}

TEST_F(ServingEngineTest, QueryCacheCarriesForwardMinusEpochDelta) {
  ServingEngine serving(Options(), std::vector<Link>{LebronLink()});
  const std::string lebron_q = AwardQuery("NBA MVP 2013");

  auto miss = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->from_cache);
  auto hit = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);

  // Durant's link touches neither of the neighborhoods the LeBron query
  // consulted: the next epoch serves the carried-forward entry on its
  // first execution.
  serving.StageLink(DurantLink(), true);
  (void)serving.Publish();
  auto carried = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(carried.ok());
  EXPECT_TRUE(carried->from_cache);
  EXPECT_EQ(HashAnswers(carried->answers), HashAnswers(miss->answers));

  // Retracting LeBron's link invalidates exactly that entry: the next
  // epoch re-executes and sees the shrunk answer set.
  serving.StageLink(LebronLink(), false);
  (void)serving.Publish();
  auto invalidated = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(invalidated.ok());
  EXPECT_FALSE(invalidated->from_cache);
  EXPECT_TRUE(invalidated->answers.empty());
}

TEST_F(ServingEngineTest, PlanCacheSharedAcrossEpochs) {
  ServingEngine serving(Options(), std::vector<Link>{LebronLink()});
  std::shared_ptr<const EpochSnapshot> epoch0 = serving.Pin();
  serving.StageLink(DurantLink(), true);
  std::shared_ptr<const EpochSnapshot> epoch1 = serving.Publish();
  // One parse/plan cache serves every epoch.
  ASSERT_NE(epoch0->plan_cache(), nullptr);
  EXPECT_EQ(epoch0->plan_cache(), epoch1->plan_cache());
}

// A store builds its indexes lazily on first read, which is not safe under
// concurrent readers, so the engine builds them before it publishes epoch 0:
// two readers start at once over freshly parsed stores that nothing has read.
// (Run under TSan by scripts/check_tsan.sh.)
TEST(ServingWarmUpTest, ConcurrentFirstReadsOverFreshlyParsedStores) {
  rdf::TripleStore dbpedia("dbpedia");
  rdf::TripleStore nytimes("nytimes");
  ASSERT_TRUE(rdf::ParseNTriples("<http://dbpedia.org/LeBron_James> "
                                 "<http://dbpedia.org/award> "
                                 "\"NBA MVP 2013\" .\n",
                                 &dbpedia)
                  .ok());
  ASSERT_TRUE(rdf::ParseNTriples("<http://nyt.com/article/1> "
                                 "<http://nyt.com/about> "
                                 "<http://nyt.com/person/lebron> .\n",
                                 &nytimes)
                  .ok());
  ServingOptions options;
  options.sources = {&dbpedia, &nytimes};
  const std::vector<Link> links = {Link{"http://dbpedia.org/LeBron_James",
                                        "http://nyt.com/person/lebron", 0.99}};
  ServingEngine serving(options, links);

  const std::string query =
      "SELECT ?article WHERE { ?player <http://dbpedia.org/award> "
      "\"NBA MVP 2013\" . ?article <http://nyt.com/about> ?player }";
  std::barrier<> start(2);
  std::vector<size_t> rows(2, 0);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < rows.size(); ++r) {
    readers.emplace_back([&, r] {
      start.arrive_and_wait();
      Result<fed::FederatedResult> result = serving.ExecuteText(query);
      if (result.ok()) rows[r] = result->answers.size();
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(rows, (std::vector<size_t>{1, 1}));
}

TEST_F(ServingEngineTest, ReaderAccountingTracksQueries) {
  ServingEngine serving(Options(), std::vector<Link>{LebronLink()});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(serving.ExecuteText(AwardQuery("NBA MVP 2013")).ok());
  }
  ServingEngine::Stats stats = serving.stats();
  EXPECT_EQ(stats.queries_served, 5u);
  EXPECT_GE(stats.max_concurrent_readers, 1u);
}

// -- Live-learner regimes over a generated world ---------------------------

struct LoopFixture {
  LoopFixture()
      : world(datagen::Generate(datagen::TinyTestProfile())),
        truth(world.ground_truth),
        initial(linking::FilterByScore(
            linking::RunParis(world.left, world.right), 0.95)) {}

  // A fresh, identically-initialized engine per run (the series must depend
  // only on the run configuration).
  std::unique_ptr<core::AlexEngine> MakeEngine() {
    core::AlexOptions options;
    options.num_partitions = 2;
    options.num_threads = 1;
    options.episode_size = 60;
    options.max_episodes = 5;
    auto engine =
        std::make_unique<core::AlexEngine>(&world.left, &world.right, options);
    EXPECT_TRUE(engine->Initialize(initial).ok());
    return engine;
  }

  ServingLoopOptions LoopOptions() {
    ServingLoopOptions options;
    options.workload.num_queries = 80;
    return options;
  }

  datagen::GeneratedWorld world;
  feedback::GroundTruth truth;
  std::vector<linking::Link> initial;
};

// The learner series is bitwise-identical at 0, 2 and 4 reader streams:
// readers share nothing mutable with the learner. (The 0-stream series is
// pinned in tests/eval/driver_series_test.cc.)
TEST(ServingLoopTest, EpisodeSeriesUnchangedServingOnOrOff) {
  LoopFixture fixture;
  std::vector<eval::ExperimentResult> runs;
  for (size_t streams : {size_t{0}, size_t{2}, size_t{4}}) {
    ServingLoopOptions options = fixture.LoopOptions();
    options.num_streams = streams;
    options.verify_identity = false;
    auto engine = fixture.MakeEngine();
    runs.push_back(RunServingExperiment(engine.get(), fixture.world,
                                        fixture.truth, options)
                       ->experiment);
  }

  const eval::ExperimentResult& plain = runs.front();
  ASSERT_GE(plain.series.size(), 2u);
  for (size_t r = 1; r < runs.size(); ++r) {
    const eval::ExperimentResult& served = runs[r];
    ASSERT_EQ(served.series.size(), plain.series.size()) << "run " << r;
    for (size_t i = 0; i < plain.series.size(); ++i) {
      const eval::EpisodePoint& a = plain.series[i];
      const eval::EpisodePoint& b = served.series[i];
      EXPECT_EQ(a.quality.precision, b.quality.precision) << "ep " << i;
      EXPECT_EQ(a.quality.recall, b.quality.recall) << "ep " << i;
      EXPECT_EQ(a.quality.f_measure, b.quality.f_measure) << "ep " << i;
      EXPECT_EQ(a.quality.candidates, b.quality.candidates) << "ep " << i;
      EXPECT_EQ(a.stats.feedback_items, b.stats.feedback_items) << "ep " << i;
      EXPECT_EQ(a.stats.positive_feedback, b.stats.positive_feedback);
      EXPECT_EQ(a.stats.negative_feedback, b.stats.negative_feedback);
      EXPECT_EQ(a.stats.candidate_count, b.stats.candidate_count);
    }
    EXPECT_EQ(served.new_links_discovered, plain.new_links_discovered);
  }
}

// The resilient path mutates breaker state and runs its queries one at a
// time, so endpoint faults with reader streams are refused up front.
TEST(ServingLoopTest, FaultsWithReaderStreamsAreRefused) {
  LoopFixture fixture;
  ServingLoopOptions options = fixture.LoopOptions();
  options.fault_profile.seed = 1;
  options.fault_profile.transient_error_rate = 0.1;
  options.num_streams = 2;
  auto engine = fixture.MakeEngine();
  Result<ServingRunResult> refused = RunServingExperiment(
      engine.get(), fixture.world, fixture.truth, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->episodes_run(), 0);  // refused before any episode

  options.num_streams = 0;
  Result<ServingRunResult> sequential = RunServingExperiment(
      engine.get(), fixture.world, fixture.truth, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_GT(sequential->experiment.episodes, 0);
}

// A ServingEngine answers exactly what the direct FederatedEngine answers
// over the same links, with its caches off or on: the epoch pin changes no
// row.
TEST(ServingLoopTest, ServingAnswersEqualTheDirectEngine) {
  LoopFixture fixture;
  const std::vector<const rdf::TripleStore*> sources = {&fixture.world.left,
                                                        &fixture.world.right};
  fed::StagedLinkSet staged;
  for (const Link& link : fixture.initial) staged.Stage(link, true);
  const std::shared_ptr<const fed::LinkView> links = staged.Publish();
  fed::FederatedEngine direct(sources, links.get());
  const std::vector<eval::WorkloadQuery> workload =
      eval::GenerateWorkload(fixture.world, fixture.LoopOptions().workload);

  for (bool cached : {false, true}) {
    ServingOptions options;
    options.sources = sources;
    options.use_query_cache = cached;
    options.use_plan_cache = cached;
    ServingEngine serving(options, fixture.initial);
    size_t rows = 0;
    // The second pass is served from the query cache when it is on.
    for (int pass = 0; pass < 2; ++pass) {
      for (const eval::WorkloadQuery& query : workload) {
        Result<fed::FederatedResult> want = direct.ExecuteText(query.text);
        Result<fed::FederatedResult> got = serving.ExecuteText(query.text);
        ASSERT_TRUE(want.ok() && got.ok()) << query.text;
        EXPECT_EQ(HashAnswers(got->answers), HashAnswers(want->answers))
            << query.text << (cached ? " (cached)" : " (uncached)");
        rows += want->answers.size();
      }
    }
    EXPECT_GT(rows, 0u);
  }
}

// Concurrent streams over a live learner: every recorded answer set is
// bitwise-identical to a sequential replay against the same epoch, at
// 1, 2, 4 and 8 stream threads. (Run under TSan by scripts/check_tsan.sh.)
TEST(ServingLoopTest, ConcurrentStreamsAreBitwiseIdenticalToReplay) {
  LoopFixture fixture;
  for (size_t streams : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ServingLoopOptions options = fixture.LoopOptions();
    options.num_streams = streams;
    options.verify_identity = true;
    auto engine = fixture.MakeEngine();
    ServingRunResult result = *RunServingExperiment(
        engine.get(), fixture.world, fixture.truth, options);

    EXPECT_GT(result.stream_queries, 0u) << streams << " streams";
    EXPECT_GT(result.identity_replayed, 0u) << streams << " streams";
    EXPECT_EQ(result.identity_verified, result.identity_replayed)
        << streams << " streams";
    EXPECT_TRUE(result.identity_ok());
    // One epoch per episode boundary plus epoch 0.
    EXPECT_EQ(result.serving.epochs_published,
              static_cast<uint64_t>(result.experiment.episodes) + 1);
    EXPECT_GE(result.serving.max_concurrent_readers, 1u);
    EXPECT_GT(result.serving.queries_served, 0u);
  }
}

// The per-episode series surfaces the serving counters (satellite of the
// eval::report CSV columns).
TEST(ServingLoopTest, EpisodeStatsCarryServingCounters) {
  LoopFixture fixture;
  ServingLoopOptions options = fixture.LoopOptions();
  options.num_streams = 2;
  options.verify_identity = false;
  auto engine = fixture.MakeEngine();
  ServingRunResult result = *RunServingExperiment(engine.get(), fixture.world,
                                                  fixture.truth, options);

  ASSERT_GE(result.experiment.series.size(), 2u);
  for (size_t i = 1; i < result.experiment.series.size(); ++i) {
    const core::EpisodeStats& stats = result.experiment.series[i].stats;
    // Episode i closes with epoch i published on top of epoch 0.
    EXPECT_EQ(stats.epochs_published, i + 1);
  }
  // Without retention, every superseded epoch retires once streams drain.
  EXPECT_EQ(result.serving.snapshots_retired,
            result.serving.epochs_published - 1);
}

// Crowd votes riding on stream traffic: readers cast noisy votes on the
// provenance links of every answer they serve; the learner drains one
// verdict batch per epoch boundary. Epoch-pinned answer identity must
// survive the extra (timing-dependent) feedback source.
TEST(ServingLoopTest, StreamVotesFlowThroughAggregatorIntoTheLearner) {
  LoopFixture fixture;
  ServingLoopOptions options = fixture.LoopOptions();
  options.num_streams = 2;
  options.verify_identity = true;
  options.votes_per_answer_link = 3;
  options.vote_error_rate = 0.1;
  options.aggregator.quorum = 3;
  auto engine = fixture.MakeEngine();
  ServingRunResult result = *RunServingExperiment(engine.get(), fixture.world,
                                                  fixture.truth, options);

  // The streams served traffic; every answer with provenance links votes.
  EXPECT_GT(result.stream_queries, 0u);
  EXPECT_GT(result.stream_votes, 0u);
  // Identity of pinned-epoch replays is independent of the vote pipeline.
  EXPECT_GT(result.identity_replayed, 0u);
  EXPECT_TRUE(result.identity_ok());
  // Cumulative aggregator counters surface in the final episode's stats.
  const core::EpisodeStats& last = result.experiment.series.back().stats;
  EXPECT_EQ(result.crowd_verdicts, last.verdicts_emitted);
  EXPECT_LE(last.verdicts_emitted * 3, last.votes_recorded);
}

}  // namespace
}  // namespace alex::serving
