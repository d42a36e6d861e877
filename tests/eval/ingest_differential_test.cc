// The ingest-differential harness — the gate for live triple ingest.
//
// Twin engines run the same grow-ingest-learn schedule over identically
// generated (and identically mutated) worlds, one with incremental ingest
// (sidecar AddRights + FeatureSpace::Grow) and one with the from-scratch
// rebuild baseline. After EVERY ingest epoch the shared blocking-index
// fingerprint, every per-partition feature-space fingerprint, the episode
// statistics and the full candidate-link set must agree — across feature
// compaction thresholds {0, 1, 32} and at 1/2/4 worker threads (the thread
// sweep must be bitwise-identical, timing aside). A serving-tier test pins
// two reader streams across live ingest epochs, and the plan cache must
// recompile exactly when a store's mutation generation moves.
#include "eval/ingest_driven.h"

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "feedback/oracle.h"
#include "linking/paris.h"
#include "rdf/triple_store.h"
#include "serving/serving_engine.h"
#include "serving/serving_loop.h"

namespace alex::eval {
namespace {

using core::AlexEngine;
using core::AlexOptions;
using linking::Link;
using rdf::Term;

// Everything observable about one ingest epoch + the episode that follows:
// structural fingerprints, ingest accounting, episode stats, candidates.
struct EpochObservation {
  AlexEngine::IngestStats ingest;
  uint64_t right_fingerprint = 0;
  std::vector<uint64_t> partition_fingerprints;
  core::EpisodeStats episode;
  std::vector<Link> candidates;
};

struct RunConfig {
  bool incremental = true;
  size_t compaction_threshold = 32;
  int threads = 1;
  int epochs = 3;
  datagen::WorldProfile profile = datagen::TinyTestProfile();
};

// A datagen pair profile at `scale` of its entity counts.
datagen::WorldProfile ScaledProfile(const std::string& name, double scale) {
  datagen::WorldProfile profile;
  EXPECT_TRUE(datagen::ProfileByName(name, &profile)) << name;
  auto scaled = [scale](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(n * scale));
  };
  profile.overlap_entities = scaled(profile.overlap_entities);
  profile.left_only_entities = scaled(profile.left_only_entities);
  profile.right_only_entities = scaled(profile.right_only_entities);
  if (profile.confusable_pairs > 0) {
    profile.confusable_pairs = scaled(profile.confusable_pairs);
  }
  return profile;
}

AlexOptions MakeOptions(const RunConfig& config) {
  AlexOptions options;
  options.num_partitions = 3;
  options.num_threads = config.threads;
  options.episode_size = 60;
  options.incremental_ingest = config.incremental;
  options.space.compaction_threshold = config.compaction_threshold;
  options.space.blocking.pending_merge_threshold = config.compaction_threshold;
  return options;
}

// One full grow-ingest-learn run. The world is regenerated per run and the
// growth schedule is a pure function of (profile, seed, fraction, epochs),
// so every run over the same RunConfig-independent inputs mutates its
// stores identically — the differential needs no shared state.
std::vector<EpochObservation> RunGrowingRun(const RunConfig& config) {
  const datagen::WorldProfile& profile = config.profile;
  datagen::GeneratedWorld world = datagen::Generate(profile);
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial =
      linking::FilterByScore(linking::RunParis(world.left, world.right), 0.95);

  AlexEngine engine(&world.left, &world.right, MakeOptions(config));
  Status init = engine.Initialize(initial);
  EXPECT_TRUE(init.ok()) << init.message();
  if (!init.ok()) return {};

  datagen::GrowthSchedule schedule =
      datagen::GrowWorld(profile, 21, 0.05, config.epochs);
  feedback::Oracle oracle(&truth, 0.0, 99);
  core::FeedbackFn feedback = [&oracle](const Link& link) {
    return oracle.Feedback(link);
  };

  std::vector<EpochObservation> series;
  for (const datagen::GrowthEpoch& epoch : schedule.epochs) {
    datagen::ApplyGrowthEpoch(epoch, &world.left, &world.right);
    for (const Link& link : epoch.new_ground_truth) truth.Add(link);

    EpochObservation obs;
    Status status = engine.IngestTriples(&obs.ingest);
    EXPECT_TRUE(status.ok()) << status.message();
    if (!status.ok()) return series;
    obs.right_fingerprint = engine.right_context()->index.Fingerprint();
    for (const core::PartitionAlex& partition : engine.partitions()) {
      obs.partition_fingerprints.push_back(partition.space().Fingerprint());
    }
    obs.episode = engine.RunEpisode(feedback);
    obs.candidates = engine.CandidateLinks();
    series.push_back(std::move(obs));
  }
  return series;
}

// The mode-independent contract: same structures, same learning, same
// candidates. Cumulative overflow/merge counters legitimately differ
// between the incremental and rebuild modes and are checked separately.
void ExpectSameLogicalSeries(const std::vector<EpochObservation>& inc,
                             const std::vector<EpochObservation>& reb) {
  ASSERT_EQ(inc.size(), reb.size());
  for (size_t i = 0; i < inc.size(); ++i) {
    SCOPED_TRACE("epoch " + std::to_string(i));
    EXPECT_EQ(inc[i].right_fingerprint, reb[i].right_fingerprint);
    EXPECT_EQ(inc[i].partition_fingerprints, reb[i].partition_fingerprints);

    EXPECT_EQ(inc[i].ingest.triples_ingested, reb[i].ingest.triples_ingested);
    EXPECT_EQ(inc[i].ingest.new_left_entities,
              reb[i].ingest.new_left_entities);
    EXPECT_EQ(inc[i].ingest.new_right_entities,
              reb[i].ingest.new_right_entities);
    EXPECT_EQ(inc[i].ingest.new_pairs, reb[i].ingest.new_pairs);
    EXPECT_EQ(inc[i].ingest.ingest_epoch, reb[i].ingest.ingest_epoch);

    EXPECT_EQ(inc[i].episode.feedback_items, reb[i].episode.feedback_items);
    EXPECT_EQ(inc[i].episode.positive_feedback,
              reb[i].episode.positive_feedback);
    EXPECT_EQ(inc[i].episode.negative_feedback,
              reb[i].episode.negative_feedback);
    EXPECT_EQ(inc[i].episode.links_added, reb[i].episode.links_added);
    EXPECT_EQ(inc[i].episode.links_removed, reb[i].episode.links_removed);
    EXPECT_EQ(inc[i].episode.rollbacks, reb[i].episode.rollbacks);
    EXPECT_EQ(inc[i].episode.candidate_count, reb[i].episode.candidate_count);
    EXPECT_EQ(inc[i].episode.change_fraction, reb[i].episode.change_fraction);
    EXPECT_EQ(inc[i].candidates, reb[i].candidates);
  }
}

// The thread-sweep contract within one mode: EVERYTHING except wall-clock
// timing is bitwise-identical, cumulative ingest counters included.
void ExpectIdenticalSeries(const std::vector<EpochObservation>& a,
                           const std::vector<EpochObservation>& b) {
  ExpectSameLogicalSeries(a, b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("epoch " + std::to_string(i));
    EXPECT_EQ(a[i].ingest.overflow_entries, b[i].ingest.overflow_entries);
    EXPECT_EQ(a[i].ingest.blocking_merges, b[i].ingest.blocking_merges);
    EXPECT_EQ(a[i].episode.triples_ingested, b[i].episode.triples_ingested);
    EXPECT_EQ(a[i].episode.entities_added, b[i].episode.entities_added);
    EXPECT_EQ(a[i].episode.blocking_merges, b[i].episode.blocking_merges);
    EXPECT_EQ(a[i].episode.space_overflow_pairs,
              b[i].episode.space_overflow_pairs);
    EXPECT_EQ(a[i].episode.ingest_epochs, b[i].episode.ingest_epochs);
  }
}

TEST(IngestDifferentialTest, IncrementalMatchesRebuildAcrossThresholds) {
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}}) {
    SCOPED_TRACE("compaction threshold " + std::to_string(threshold));
    RunConfig incremental{/*incremental=*/true, threshold, /*threads=*/1,
                          /*epochs=*/3};
    RunConfig rebuild{/*incremental=*/false, threshold, /*threads=*/1,
                      /*epochs=*/3};
    std::vector<EpochObservation> inc = RunGrowingRun(incremental);
    std::vector<EpochObservation> reb = RunGrowingRun(rebuild);
    ASSERT_EQ(inc.size(), 3u);
    ExpectSameLogicalSeries(inc, reb);

    // The schedule genuinely grew the spaces every epoch, and the rebuild
    // baseline never parks score entries in sidecars.
    for (const EpochObservation& obs : inc) {
      EXPECT_GT(obs.ingest.new_pairs, 0u);
      EXPECT_GT(obs.ingest.triples_ingested, 0u);
    }
    for (const EpochObservation& obs : reb) {
      EXPECT_EQ(obs.ingest.overflow_entries, 0u);
    }
    // And the incremental runs really exercised the sidecar path.
    EXPECT_GT(inc.back().episode.space_overflow_pairs, 0u);
  }
}

TEST(IngestDifferentialTest, SeriesBitwiseIdenticalAcrossThreadCounts) {
  std::vector<EpochObservation> inc_base =
      RunGrowingRun({/*incremental=*/true, 32, /*threads=*/1, /*epochs=*/3});
  std::vector<EpochObservation> reb_base =
      RunGrowingRun({/*incremental=*/false, 32, /*threads=*/1, /*epochs=*/3});
  ASSERT_EQ(inc_base.size(), 3u);
  for (int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectIdenticalSeries(
        inc_base, RunGrowingRun({/*incremental=*/true, 32, threads, 3}));
    ExpectIdenticalSeries(
        reb_base, RunGrowingRun({/*incremental=*/false, 32, threads, 3}));
  }
}

TEST(IngestDifferentialTest, RealisticWorldsMatchRebuildEveryEpoch) {
  // Two datagen worlds at a fifth of their entity counts, three epochs of
  // 5% growth each. From the second epoch on, the previous epoch's new lefts
  // are old lefts that only the reverse-probe index's sidecar can find.
  for (const char* name : {"dbpedia_nytimes", "dbpedia_opencyc"}) {
    SCOPED_TRACE(name);
    const datagen::WorldProfile profile = ScaledProfile(name, 0.2);
    std::vector<EpochObservation> inc_base;
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      std::vector<EpochObservation> inc = RunGrowingRun(
          {/*incremental=*/true, 32, threads, /*epochs=*/3, profile});
      std::vector<EpochObservation> reb = RunGrowingRun(
          {/*incremental=*/false, 32, threads, /*epochs=*/3, profile});
      ASSERT_EQ(inc.size(), 3u);
      ExpectSameLogicalSeries(inc, reb);
      for (const EpochObservation& obs : inc) {
        EXPECT_GT(obs.ingest.new_pairs, 0u);
        EXPECT_GT(obs.ingest.new_left_entities, 0u);
        EXPECT_GT(obs.ingest.new_right_entities, 0u);
      }
      if (inc_base.empty()) {
        inc_base = std::move(inc);
      } else {
        ExpectIdenticalSeries(inc_base, inc);
      }
    }
  }
}

TEST(IngestDifferentialTest, IngestRejectsChangesToPreexistingSubjects) {
  datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  std::vector<Link> initial =
      linking::FilterByScore(linking::RunParis(world.left, world.right), 0.95);
  AlexEngine engine(&world.left, &world.right, MakeOptions(RunConfig{}));
  ASSERT_TRUE(engine.Initialize(initial).ok());

  // Retract every triple of a pre-existing subject: the old subject prefix
  // shrinks and the additive-growth contract is violated.
  rdf::TermId victim = world.left.Subjects().front();
  rdf::IngestBatch batch;
  rdf::MatchCursor cursor =
      world.left.Scan(victim, std::nullopt, std::nullopt);
  while (const rdf::Triple* triple = cursor.Next()) {
    batch.retracts.push_back(*triple);
  }
  ASSERT_FALSE(batch.retracts.empty());
  world.left.Ingest(batch);

  Status status = engine.IngestTriples();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IngestDifferentialTest, IngestRequiresEngineOwnedRightContext) {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  datagen::GeneratedWorld world = datagen::Generate(profile);
  std::vector<Link> initial =
      linking::FilterByScore(linking::RunParis(world.left, world.right), 0.95);
  AlexOptions options = MakeOptions(RunConfig{});
  std::shared_ptr<const core::RightContext> prepared =
      core::RightContext::Prepare(world.right, world.right.Subjects(),
                                  options.space);
  AlexEngine engine(&world.left, &world.right, options);
  ASSERT_TRUE(engine.Initialize(initial, prepared).ok());

  datagen::GrowthSchedule schedule = datagen::GrowWorld(profile, 21, 0.05, 1);
  datagen::ApplyGrowthEpoch(schedule.epochs[0], &world.left, &world.right);
  Status status = engine.IngestTriples();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(IngestDifferentialTest, IngestDrivenExperimentCarriesCounters) {
  ExperimentConfig config;
  config.profile = datagen::TinyTestProfile();
  config.alex.num_partitions = 2;
  config.alex.num_threads = 1;
  config.alex.episode_size = 60;
  IngestDrivenOptions ingest;
  ingest.epochs = 3;
  ingest.growth_fraction = 0.05;
  ingest.growth_seed = 21;

  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  const size_t base_truth = world.ground_truth.size();
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), config.paris_threshold);

  Result<ExperimentResult> result =
      RunIngestDrivenExperiment(config, ingest, &world, initial);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->series.size(), static_cast<size_t>(ingest.epochs) + 1);
  EXPECT_EQ(result->episodes, ingest.epochs);
  // The world grew in place, and the growing truth was evaluated against.
  EXPECT_GT(result->ground_truth_size, base_truth);

  // Episode 0 is the pre-growth baseline; the counters then accumulate
  // monotonically and the final episode accounts for every epoch.
  EXPECT_EQ(result->series.front().stats.ingest_epochs, 0u);
  for (size_t i = 1; i < result->series.size(); ++i) {
    const core::EpisodeStats& prev = result->series[i - 1].stats;
    const core::EpisodeStats& curr = result->series[i].stats;
    EXPECT_EQ(curr.ingest_epochs, static_cast<size_t>(i));
    EXPECT_GE(curr.triples_ingested, prev.triples_ingested);
    EXPECT_GE(curr.entities_added, prev.entities_added);
    EXPECT_GT(curr.triples_ingested, 0u);
    EXPECT_GT(curr.entities_added, 0u);
  }
}

// -- Serving across live ingest ---------------------------------------------

struct IngestRound {
  std::string player;
  std::string award;
  std::string article;
  std::string person;
  Link link;
};

void ApplyServingIngest(rdf::TripleStore* dbpedia, rdf::TripleStore* nytimes,
                        const IngestRound& round) {
  rdf::IngestBatch db;
  db.adds.push_back({dbpedia->InternTerm(Term::Iri(round.player)),
                     dbpedia->InternTerm(Term::Iri("http://dbpedia.org/award")),
                     dbpedia->InternTerm(Term::StringLiteral(round.award))});
  dbpedia->Ingest(db);
  rdf::IngestBatch ny;
  ny.adds.push_back({nytimes->InternTerm(Term::Iri(round.article)),
                     nytimes->InternTerm(Term::Iri("http://nyt.com/about")),
                     nytimes->InternTerm(Term::Iri(round.person))});
  nytimes->Ingest(ny);
}

std::string AwardQuery(const std::string& award) {
  return "SELECT ?article WHERE { "
         "?player <http://dbpedia.org/award> \"" +
         award +
         "\" . "
         "?article <http://nyt.com/about> ?player }";
}

// Two reader streams stay pinned to epoch 0 across two live ingest epochs.
// Readers quiesce (via barrier) while the publisher mutates the stores;
// their pinned snapshot must keep answering bitwise-identically, new pins
// must see each published epoch, and NoteSourceIngest must start the next
// epoch with a COLD query cache (delta invalidation is unsound once the
// stores themselves changed).
TEST(ServingIngestTest, ReadersStayPinnedAcrossIngestEpochs) {
  rdf::TripleStore dbpedia("dbpedia");
  rdf::TripleStore nytimes("nytimes");
  dbpedia.Add(Term::Iri("http://dbpedia.org/LeBron_James"),
              Term::Iri("http://dbpedia.org/award"),
              Term::StringLiteral("NBA MVP 2013"));
  nytimes.Add(Term::Iri("http://nyt.com/article/1"),
              Term::Iri("http://nyt.com/about"),
              Term::Iri("http://nyt.com/person/lebron"));
  (void)dbpedia.size();  // warm the lazy indexes before concurrent reads
  (void)nytimes.size();

  const std::vector<IngestRound> rounds = {
      {"http://dbpedia.org/Nikola_Jokic", "NBA MVP 2021",
       "http://nyt.com/article/5", "http://nyt.com/person/jokic",
       Link{"http://dbpedia.org/Nikola_Jokic", "http://nyt.com/person/jokic",
            1.0}},
      {"http://dbpedia.org/Joel_Embiid", "NBA MVP 2023",
       "http://nyt.com/article/7", "http://nyt.com/person/embiid",
       Link{"http://dbpedia.org/Joel_Embiid", "http://nyt.com/person/embiid",
            1.0}},
  };

  serving::ServingOptions options;
  options.sources = {&dbpedia, &nytimes};
  serving::ServingEngine serving(
      options, std::vector<Link>{Link{"http://dbpedia.org/LeBron_James",
                                      "http://nyt.com/person/lebron", 0.99}});

  // Warm the epoch-0 query cache on the publisher thread.
  const std::string lebron_q = AwardQuery("NBA MVP 2013");
  auto warm_miss = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(warm_miss.ok());
  EXPECT_FALSE(warm_miss->from_cache);
  auto warm_hit = serving.ExecuteText(lebron_q);
  ASSERT_TRUE(warm_hit.ok());
  EXPECT_TRUE(warm_hit->from_cache);

  constexpr int kReaders = 2;
  std::barrier<> sync(kReaders + 1);
  std::vector<std::string> errors(kReaders);

  auto reader = [&](int id) {
    std::shared_ptr<const serving::EpochSnapshot> pinned = serving.Pin();
    auto fail = [&](const std::string& what) { errors[id] = what; };
    if (pinned->epoch() != 0) return fail("reader pinned a non-zero epoch");
    auto baseline = pinned->ExecuteText(lebron_q);
    if (!baseline.ok()) return fail("baseline query failed");
    const uint64_t baseline_hash = serving::HashAnswers(baseline->answers);

    for (size_t r = 0; r < rounds.size(); ++r) {
      sync.arrive_and_wait();  // A: quiesced; the publisher ingests now
      sync.arrive_and_wait();  // B: mutation + publish done, reads are safe

      // The pinned snapshot still answers bitwise-identically: the new
      // entities' links belong to later epochs.
      auto replay = pinned->ExecuteText(lebron_q);
      if (!replay.ok()) return fail("pinned replay failed");
      if (serving::HashAnswers(replay->answers) != baseline_hash) {
        return fail("pinned answers changed under ingest");
      }
      auto stale = pinned->ExecuteText(AwardQuery(rounds[r].award));
      if (!stale.ok()) return fail("pinned new-award query failed");
      if (!stale->answers.empty()) {
        return fail("pinned epoch sees a link published after it");
      }

      // A fresh pin sees the newly published epoch and its new link.
      std::shared_ptr<const serving::EpochSnapshot> fresh = serving.Pin();
      if (fresh->epoch() != r + 1) return fail("fresh pin missed an epoch");
      auto grown = fresh->ExecuteText(AwardQuery(rounds[r].award));
      if (!grown.ok()) return fail("fresh new-award query failed");
      if (grown->answers.size() != 1) {
        return fail("new entity not answerable after publish");
      }
      sync.arrive_and_wait();  // C: round done
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int id = 0; id < kReaders; ++id) threads.emplace_back(reader, id);

  for (const IngestRound& round : rounds) {
    sync.arrive_and_wait();  // A: readers quiesced (pins held, no queries)
    ApplyServingIngest(&dbpedia, &nytimes, round);
    serving.NoteSourceIngest();
    serving.StageLink(round.link, true);
    (void)serving.Publish();

    // The ingested epoch starts with a cold query cache: even the warmed
    // query re-executes (its cached answers were computed against the
    // pre-ingest stores).
    auto cold = serving.ExecuteText(lebron_q);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold->from_cache);
    EXPECT_EQ(serving::HashAnswers(cold->answers),
              serving::HashAnswers(warm_miss->answers));
    sync.arrive_and_wait();  // B: release the readers
    sync.arrive_and_wait();  // C: their reads finished
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) EXPECT_EQ(error, "");

  EXPECT_EQ(serving.stats().epochs_published, rounds.size() + 1);
  EXPECT_GE(serving.stats().max_concurrent_readers, 1u);
}

}  // namespace
}  // namespace alex::eval
