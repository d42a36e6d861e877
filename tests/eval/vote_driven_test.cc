#include "eval/vote_driven.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "datagen/profiles.h"
#include "linking/paris.h"

namespace alex::eval {
namespace {

datagen::GeneratedWorld SmallWorld() {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  return datagen::Generate(profile);
}

core::AlexOptions EngineOptions(bool prioritized, int max_episodes = 12) {
  core::AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.prioritized_sampling = prioritized;
  options.max_episodes = max_episodes;
  return options;
}

ExperimentResult RunOnce(const datagen::GeneratedWorld& world,
                         bool prioritized, int vote_threads,
                         size_t num_shards, int max_episodes = 12) {
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);
  core::AlexEngine engine(&world.left, &world.right,
                          EngineOptions(prioritized, max_episodes));
  EXPECT_TRUE(engine.Initialize(initial).ok());

  VoteDrivenOptions options;
  options.links_per_episode = 150;
  options.users_per_link = 5;
  options.vote_error_rate = 0.1;
  options.vote_threads = vote_threads;
  options.aggregator.quorum = 3;
  options.aggregator.num_shards = num_shards;
  return RunVoteDrivenExperiment(&engine, truth, options);
}

// A byte-exact textual fingerprint of everything the series decides:
// feedback flow, candidate counts, quality, and aggregator counters.
std::string SeriesFingerprint(const ExperimentResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << result.episodes << '|' << result.converged << '|'
      << result.new_links_discovered << '\n';
  for (const EpisodePoint& point : result.series) {
    const core::EpisodeStats& s = point.stats;
    out << point.episode << ' ' << s.feedback_items << ' '
        << s.positive_feedback << ' ' << s.negative_feedback << ' '
        << s.candidate_count << ' ' << s.change_fraction << ' '
        << s.votes_recorded << ' ' << s.verdicts_emitted << ' '
        << s.aggregator_pending << ' ' << s.votes_suppressed << ' '
        << s.tallies_evicted << ' ' << point.quality.precision << ' '
        << point.quality.recall << ' ' << point.quality.f_measure << '\n';
  }
  return out.str();
}

TEST(VoteDrivenTest, ImprovesLinksThroughAggregatedVotes) {
  datagen::GeneratedWorld world = SmallWorld();
  ExperimentResult result = RunOnce(world, /*prioritized=*/false,
                                    /*vote_threads=*/1, /*num_shards=*/16);
  ASSERT_GE(result.series.size(), 2u);
  const Quality& start = result.series[0].quality;
  double best_f = 0.0;
  for (const EpisodePoint& point : result.series) {
    best_f = std::max(best_f, point.quality.f_measure);
  }
  EXPECT_GT(best_f, start.f_measure);
  // Verdicts flowed: users voted, quorums emitted, minorities suppressed.
  const core::EpisodeStats& last = result.series.back().stats;
  EXPECT_GT(last.votes_recorded, 0u);
  EXPECT_GT(last.verdicts_emitted, 0u);
  EXPECT_EQ(last.verdicts_emitted,
            static_cast<size_t>(
                [&] {
                  size_t total = 0;
                  for (const EpisodePoint& p : result.series) {
                    total += p.stats.feedback_items;
                  }
                  return total;
                }()));
}

TEST(VoteDrivenTest, SeriesIdenticalAcrossVoteThreadsAndShards) {
  // The full episode series — not just the verdict batches — must be
  // byte-identical whether votes are cast by 1, 2 or 4 threads, into a
  // single-lock or a 16-shard aggregator.
  datagen::GeneratedWorld world = SmallWorld();
  const std::string baseline = SeriesFingerprint(
      RunOnce(world, /*prioritized=*/false, /*vote_threads=*/1,
              /*num_shards=*/1));
  for (int threads : {1, 2, 4}) {
    for (size_t shards : {1u, 16u}) {
      if (threads == 1 && shards == 1u) continue;
      EXPECT_EQ(SeriesFingerprint(
                    RunOnce(world, /*prioritized=*/false, threads, shards)),
                baseline)
          << "threads " << threads << " shards " << shards;
    }
  }
}

TEST(VoteDrivenTest, PrioritizedSamplingIsDeterministicAndConverges) {
  datagen::GeneratedWorld world = SmallWorld();
  ExperimentResult a = RunOnce(world, /*prioritized=*/true,
                               /*vote_threads=*/2, /*num_shards=*/16);
  ExperimentResult b = RunOnce(world, /*prioritized=*/true,
                               /*vote_threads=*/4, /*num_shards=*/16);
  EXPECT_EQ(SeriesFingerprint(a), SeriesFingerprint(b));
  // Prioritized runs must still learn.
  ASSERT_GE(a.series.size(), 2u);
  double best_f = 0.0;
  for (const EpisodePoint& point : a.series) {
    best_f = std::max(best_f, point.quality.f_measure);
  }
  EXPECT_GT(best_f, a.series[0].quality.f_measure);
}

// First episode whose F-measure reaches `threshold`; max_episodes + 1 when
// the run never gets there, so that "never" loses every comparison.
int EpisodesToF(const ExperimentResult& result, double threshold,
                int max_episodes) {
  for (const EpisodePoint& point : result.series) {
    if (point.quality.f_measure >= threshold) return point.episode;
  }
  return max_episodes + 1;
}

TEST(VoteDrivenTest, PrioritizedReachesHighFNoLaterThanUniform) {
  // At an equal vote budget (150 links x 5 users per episode), prioritized
  // (uncertainty-weighted) sampling reaches F >= 0.95 in no more episodes
  // than uniform sampling.
  const int kMaxEpisodes = 20;
  datagen::GeneratedWorld world = SmallWorld();
  const int uniform = EpisodesToF(
      RunOnce(world, /*prioritized=*/false, /*vote_threads=*/2,
              /*num_shards=*/16, kMaxEpisodes),
      0.95, kMaxEpisodes);
  const int prioritized = EpisodesToF(
      RunOnce(world, /*prioritized=*/true, /*vote_threads=*/2,
              /*num_shards=*/16, kMaxEpisodes),
      0.95, kMaxEpisodes);
  EXPECT_LE(prioritized, uniform);
}

TEST(VoteDrivenTest, NoisyVotesReportRollbacks) {
  // Negative verdicts on explored links reach the actions that generated
  // them, so rollbacks fire; the episode stats must count them.
  datagen::GeneratedWorld world = SmallWorld();
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);
  core::AlexEngine engine(&world.left, &world.right,
                          EngineOptions(/*prioritized=*/false));
  ASSERT_TRUE(engine.Initialize(initial).ok());
  VoteDrivenOptions options;
  options.links_per_episode = 150;
  options.users_per_link = 3;
  options.vote_error_rate = 0.3;
  options.aggregator.quorum = 2;
  ExperimentResult result = RunVoteDrivenExperiment(&engine, truth, options);
  size_t rollbacks = 0;
  size_t rolled_back_links = 0;
  for (const EpisodePoint& point : result.series) {
    rollbacks += point.stats.rollbacks;
    rolled_back_links += point.stats.rolled_back_links;
  }
  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(rolled_back_links, 0u) << rollbacks << " rollbacks";
}

}  // namespace
}  // namespace alex::eval
