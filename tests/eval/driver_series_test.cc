// The episode series of every experiment driver, pinned.
//
// Fourteen runs cover the four drivers on the tiny world: batch (oracle
// error 0 and 0.1, at 1 and 2 threads), ingest, query-driven (plain, noisy,
// faulted without the cache, faulted at 2 engine threads, and faulted with
// breakers that open, half-open and close mid-run), vote-driven (uniform
// and prioritized) and serving (0 and 2 reader streams, votes off). The
// query-driven runs are the serving loop with zero reader streams, so
// their breaker state and virtual clock carry across published epochs.
// Each run's series is rendered as text and hashed against a pinned
// constant: code that only restructures the drivers leaves every hash as
// it is, and a change to what a driver learns re-pins them and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/ingest_driven.h"
#include "eval/vote_driven.h"
#include "linking/paris.h"
#include "serving/serving_loop.h"

namespace alex::eval {
namespace {

enum class Mode { kBatch, kIngest, kQuery, kVote, kServing };

struct DriverRun {
  std::string name;
  Mode mode = Mode::kBatch;
  // Serving with reader streams: the cache counters include reader traffic,
  // so they depend on thread timing and stay out of the hash.
  bool reader_traffic = false;
  ExperimentResult result;
};

struct World {
  World()
      : world(datagen::Generate(datagen::TinyTestProfile())),
        truth(world.ground_truth),
        initial(linking::FilterByScore(
            linking::RunParis(world.left, world.right), 0.95)) {}

  datagen::GeneratedWorld world;
  feedback::GroundTruth truth;
  std::vector<linking::Link> initial;
};

core::AlexOptions EngineOptions(int threads) {
  core::AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = threads;
  return options;
}

ExperimentResult RunBatch(const World& w, double error_rate, int threads) {
  ExperimentConfig config;
  config.profile = datagen::TinyTestProfile();
  config.alex = EngineOptions(threads);
  config.alex.episode_size = 100;
  config.alex.max_episodes = 12;
  config.feedback_error_rate = error_rate;
  Result<ExperimentResult> result =
      RunExperimentOnWorld(config, w.world, w.initial);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : ExperimentResult{};
}

ExperimentResult RunIngest() {
  ExperimentConfig config;
  config.profile = datagen::TinyTestProfile();
  config.alex = EngineOptions(1);
  config.alex.episode_size = 60;
  IngestDrivenOptions ingest;
  ingest.epochs = 4;
  ingest.growth_fraction = 0.05;
  ingest.growth_seed = 21;
  // The driver grows the world in place, so it gets a world of its own.
  World w;
  Result<ExperimentResult> result =
      RunIngestDrivenExperiment(config, ingest, &w.world, w.initial);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : ExperimentResult{};
}

fed::FaultProfile Faults() {
  fed::FaultProfile profile;
  profile.seed = 606;
  profile.transient_error_rate = 0.15;
  profile.truncation_rate = 0.1;
  profile.truncation_keep_fraction = 0.5;
  return profile;
}

// Endpoints that fail often enough, without retries, and breakers that
// cool down fast enough for them to open, half-open and close within most
// episodes.
fed::FaultProfile BreakerFaults() {
  fed::FaultProfile profile;
  profile.seed = 606;
  profile.transient_error_rate = 0.1;
  profile.base_latency_micros = 1000;
  profile.latency_jitter_micros = 2000;
  return profile;
}

fed::Resilience FastBreakers() {
  fed::Resilience resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.cooldown_micros = 20000;
  return resilience;
}

// Query-driven variants: a noisy oracle, a fault profile with its
// resilience settings, the result cache, and the engine's thread count.
struct QueryVariant {
  double error_rate = 0.0;
  fed::FaultProfile faults = {};
  fed::Resilience resilience = {};
  bool use_query_cache = true;
  int threads = 1;
};

ExperimentResult RunQuery(const World& w, const QueryVariant& variant,
                          double relaxed_change_fraction = 0.05) {
  core::AlexOptions alex = EngineOptions(variant.threads);
  alex.episode_size = 60;
  alex.max_episodes = 6;
  alex.relaxed_change_fraction = relaxed_change_fraction;
  core::AlexEngine engine(&w.world.left, &w.world.right, alex);
  EXPECT_TRUE(engine.Initialize(w.initial).ok());
  serving::ServingLoopOptions options;
  options.workload.num_queries = 80;
  options.feedback_error_rate = variant.error_rate;
  options.use_query_cache = variant.use_query_cache;
  options.fault_profile = variant.faults;
  options.resilience = variant.resilience;
  return serving::RunServingExperiment(&engine, w.world, w.truth, options)
      ->experiment;
}

ExperimentResult RunVote(const World& w, bool prioritized,
                         double relaxed_change_fraction = 0.05) {
  core::AlexOptions alex = EngineOptions(1);
  alex.prioritized_sampling = prioritized;
  alex.max_episodes = 12;
  alex.relaxed_change_fraction = relaxed_change_fraction;
  core::AlexEngine engine(&w.world.left, &w.world.right, alex);
  EXPECT_TRUE(engine.Initialize(w.initial).ok());
  VoteDrivenOptions options;
  options.links_per_episode = 150;
  options.users_per_link = 5;
  options.vote_error_rate = 0.1;
  options.vote_threads = 2;
  options.aggregator.quorum = 3;
  return RunVoteDrivenExperiment(&engine, w.truth, options);
}

ExperimentResult RunServing(const World& w, size_t streams,
                            double relaxed_change_fraction = 0.05) {
  core::AlexOptions alex = EngineOptions(1);
  alex.episode_size = 60;
  alex.max_episodes = 6;
  alex.relaxed_change_fraction = relaxed_change_fraction;
  core::AlexEngine engine(&w.world.left, &w.world.right, alex);
  EXPECT_TRUE(engine.Initialize(w.initial).ok());
  serving::ServingLoopOptions options;
  options.workload.num_queries = 80;
  options.num_streams = streams;
  options.verify_identity = false;
  return serving::RunServingExperiment(&engine, w.world, w.truth, options)
      ->experiment;
}

// Everything a run reports except timings, the serving counters that
// depend on reader timing (snapshots_retired, max_concurrent_readers, and
// the caches' counters under reader streams), and links_added /
// links_removed. Doubles are printed with 17 significant digits, which
// round-trips them exactly.
std::string Render(const DriverRun& run) {
  const ExperimentResult& r = run.result;
  std::ostringstream out;
  out.precision(17);
  out << "episodes " << r.episodes << " converged "
      << r.converged << " relaxed " << r.relaxed_episode << " new "
      << r.new_links_discovered << " initial " << r.initial_link_count << '/'
      << r.initial_correct << " truth " << r.ground_truth_size << '\n';
  for (const EpisodePoint& point : r.series) {
    const Quality& q = point.quality;
    const core::EpisodeStats& s = point.stats;
    out << point.episode << " q " << q.precision << ' ' << q.recall << ' '
        << q.f_measure << ' ' << q.candidates << ' ' << q.correct << " fb "
        << s.feedback_items << ' ' << s.positive_feedback << ' '
        << s.negative_feedback << " rb " << s.rollbacks << ' '
        << s.rolled_back_links << " c " << s.candidate_count << ' '
        << s.change_fraction << " e " << s.episode;
    const bool caches = run.mode == Mode::kQuery ||
                        (run.mode == Mode::kServing && !run.reader_traffic);
    if (caches) {
      out << " cache " << s.query_cache_hits << ' ' << s.query_cache_misses
          << ' ' << s.plan_cache_hits << ' ' << s.plan_cache_misses;
    }
    switch (run.mode) {
      case Mode::kBatch:
        break;
      case Mode::kIngest:
        out << " ingest " << s.triples_ingested << ' ' << s.entities_added
            << ' ' << s.blocking_merges << ' ' << s.space_overflow_pairs
            << ' ' << s.ingest_epochs;
        break;
      case Mode::kQuery:
        out << " fed " << s.query_probes << ' ' << s.query_retries << ' '
            << s.breaker_short_circuits << ' ' << s.breaker_opens << ' '
            << s.breaker_half_opens << ' ' << s.breaker_closes << ' '
            << s.incomplete_queries << ' ' << s.skipped_feedback;
        break;
      case Mode::kServing:
        out << " serving " << s.epochs_published << ' '
            << s.incomplete_queries;
        [[fallthrough]];
      case Mode::kVote:
        out << " votes " << s.votes_recorded << ' ' << s.verdicts_emitted
            << ' ' << s.aggregator_pending << ' ' << s.votes_suppressed
            << ' ' << s.tallies_evicted;
        break;
    }
    out << '\n';
  }
  return out.str();
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

class DriverSeriesTest : public ::testing::Test {
 protected:
  // The fourteen runs, made once for every test of the suite.
  static void SetUpTestSuite() {
    world_ = new World();
    runs_ = new std::vector<DriverRun>();
    const World& w = *world_;
    auto add = [](std::string name, Mode mode, ExperimentResult result,
                  bool reader_traffic = false) {
      runs_->push_back(
          {std::move(name), mode, reader_traffic, std::move(result)});
    };
    add("batch", Mode::kBatch, RunBatch(w, 0.0, 1));
    add("batch/2 threads", Mode::kBatch, RunBatch(w, 0.0, 2));
    add("batch/noisy", Mode::kBatch, RunBatch(w, 0.1, 1));
    add("batch/noisy/2 threads", Mode::kBatch, RunBatch(w, 0.1, 2));
    add("ingest", Mode::kIngest, RunIngest());
    add("query", Mode::kQuery, RunQuery(w, {}));
    add("query/noisy", Mode::kQuery, RunQuery(w, {.error_rate = 0.1}));
    add("query/faults/no cache", Mode::kQuery,
        RunQuery(w, {.faults = Faults(), .use_query_cache = false}));
    add("query/faults/2 threads", Mode::kQuery,
        RunQuery(w, {.faults = Faults(), .threads = 2}));
    add("query/breakers", Mode::kQuery,
        RunQuery(w, {.faults = BreakerFaults(), .resilience = FastBreakers()}));
    add("vote/uniform", Mode::kVote, RunVote(w, /*prioritized=*/false));
    add("vote/prioritized", Mode::kVote, RunVote(w, /*prioritized=*/true));
    add("serving/0 streams", Mode::kServing, RunServing(w, 0));
    add("serving/2 streams", Mode::kServing, RunServing(w, 2),
        /*reader_traffic=*/true);
  }

  static void TearDownTestSuite() {
    delete runs_;
    runs_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static World* world_;
  static std::vector<DriverRun>* runs_;
};

World* DriverSeriesTest::world_ = nullptr;
std::vector<DriverRun>* DriverSeriesTest::runs_ = nullptr;

TEST_F(DriverSeriesTest, SeriesMatchPinnedHashes) {
  // In the order of the runs.
  const std::vector<uint64_t> kPinned = {
      0xe39c22c603c32791ull,  // batch
      0xe39c22c603c32791ull,  // batch, 2 threads
      0x8e618c4e0ca78507ull,  // batch, noisy oracle
      0x8e618c4e0ca78507ull,  // batch, noisy oracle, 2 threads
      0x53e89d562e435567ull,  // ingest
      0x3bc02d94635aeee7ull,  // query-driven
      0x1a63f29ced991c11ull,  // query-driven, noisy oracle
      0xfa13ed66656f5329ull,  // query-driven, faults, no cache
      0x96df222d92675defull,  // query-driven, faults, 2 threads
      0x5ac4a1db7ff7033dull,  // query-driven, breakers open mid-run
      0x5bfcb488c97b2140ull,  // vote-driven, uniform
      0xe300c6a72ea61d7cull,  // vote-driven, prioritized
      0xf5c0ab717ccf8220ull,  // serving, 0 streams
      0xe11cc095b3d0a80cull,  // serving, 2 streams
  };
  ASSERT_EQ(runs_->size(), kPinned.size());
  for (size_t i = 0; i < runs_->size(); ++i) {
    const std::string text = Render((*runs_)[i]);
    EXPECT_EQ(Fnv1a(text), kPinned[i])
        << (*runs_)[i].name << ": 0x" << std::hex << Fnv1a(text) << std::dec
        << "\n"
        << text;
  }
}

// The breaker run pins breaker state across published epochs, so its
// breakers must really open in most episodes, and half-open and close
// again.
TEST_F(DriverSeriesTest, BreakerRunCyclesItsBreakers) {
  for (const DriverRun& run : *runs_) {
    if (run.name != "query/breakers") continue;
    int opened = 0;
    size_t half_opens = 0;
    size_t closes = 0;
    for (const EpisodePoint& point : run.result.series) {
      opened += point.stats.breaker_opens > 0 ? 1 : 0;
      half_opens += point.stats.breaker_half_opens;
      closes += point.stats.breaker_closes;
    }
    EXPECT_EQ(opened, 5);  // of 6 episodes
    EXPECT_GT(half_opens, 0u);
    EXPECT_GT(closes, 0u);
    return;
  }
  FAIL() << "no breaker run";
}

// Every episode's net change in candidates equals links_added minus
// links_removed, whichever source drove the feedback: the engine counts
// each item's outcome for RunEpisode and ApplyLinkFeedback alike.
TEST_F(DriverSeriesTest, LinkChurnMatchesCandidateChange) {
  for (const DriverRun& run : *runs_) {
    const std::vector<EpisodePoint>& series = run.result.series;
    ASSERT_FALSE(series.empty()) << run.name;
    int64_t before = static_cast<int64_t>(series.front().quality.candidates);
    for (size_t i = 1; i < series.size(); ++i) {
      const core::EpisodeStats& s = series[i].stats;
      const int64_t after = static_cast<int64_t>(s.candidate_count);
      EXPECT_EQ(after - before, static_cast<int64_t>(s.links_added) -
                                    static_cast<int64_t>(s.links_removed))
          << run.name << ", episode " << series[i].episode;
      before = after;
    }
  }
}

// The external-feedback loops read AlexOptions::relaxed_change_fraction
// like the batch loop does.
TEST_F(DriverSeriesTest, ExternalLoopsHonorRelaxedChangeFraction) {
  constexpr double kRelaxed = 0.9;
  const World& w = *world_;
  const std::vector<std::pair<std::string, ExperimentResult>> runs = {
      {"query", RunQuery(w, {}, kRelaxed)},
      {"vote", RunVote(w, /*prioritized=*/false, kRelaxed)},
      {"serving", RunServing(w, 0, kRelaxed)},
  };
  for (const auto& [name, result] : runs) {
    int first = -1;
    for (const EpisodePoint& point : result.series) {
      if (point.episode > 0 && point.stats.change_fraction < kRelaxed) {
        first = point.episode;
        break;
      }
    }
    EXPECT_GT(first, 0) << name << ": every episode changed 90% or more";
    EXPECT_EQ(result.relaxed_episode, first) << name;
  }
}

}  // namespace
}  // namespace alex::eval
