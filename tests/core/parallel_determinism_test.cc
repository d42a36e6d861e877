// Parallel episodes must be a pure performance knob: the full observable
// result of a run — every EpisodeStats field except wall-clock timings, the
// candidate links, the per-episode quality stream, the link-change observer
// stream, convergence — has to be identical at any thread count (see
// DESIGN.md, "The episode loop"). Along the way, the incremental quality
// tracker must equal a full rescan of the candidates after every episode.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "feedback/oracle.h"
#include "linking/paris.h"

namespace alex::core {
namespace {

// Where a changed link lives, in the order the observer contract fixes:
// (partition index, PairId) for a link in a feature space, and (number of
// partitions, index in `initial`) for a spaceless extra.
std::pair<size_t, size_t> ObserverKey(const AlexEngine& engine,
                                      const std::vector<linking::Link>& initial,
                                      const linking::Link& link) {
  const std::vector<PartitionAlex>& partitions = engine.partitions();
  for (size_t p = 0; p < partitions.size(); ++p) {
    PairId pair = partitions[p].space().FindPair(link.left, link.right);
    if (pair != kInvalidPairId) return {p, pair};
  }
  auto extra = std::find(initial.begin(), initial.end(), link);
  EXPECT_NE(extra, initial.end()) << link.left << " -> " << link.right;
  return {partitions.size(), static_cast<size_t>(extra - initial.begin())};
}

void AppendBits(std::ostringstream* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  *out << bits << ' ';
}

// Runs one engine to completion and serializes everything observable about
// the run, the link-change observer stream included. Wall-clock fields
// (seconds, max/avg_partition_seconds) are the only EpisodeStats members
// excluded. Also checks the observer order of every episode: partitions in
// index order, ascending PairId within each, then the extras in initial-link
// order.
std::string RunSerialized(const datagen::GeneratedWorld& world,
                          const std::vector<linking::Link>& initial,
                          const feedback::GroundTruth& truth,
                          AlexOptions options, int threads,
                          double error_rate) {
  options.num_threads = threads;
  AlexEngine engine(&world.left, &world.right, options);
  Status status = engine.Initialize(initial);
  EXPECT_TRUE(status.ok()) << status.ToString();

  std::vector<std::pair<std::pair<size_t, size_t>, bool>> changes;
  size_t extras_changes = 0;
  feedback::Oracle oracle(&truth, error_rate, options.seed + 17);

  std::ostringstream out;
  eval::EpisodeHooks hooks;
  hooks.on_link_change = [&](const linking::Link& link, bool added) {
    changes.push_back({ObserverKey(engine, initial, link), added});
  };
  // The run's incremental quality (eval::RunEpisodes keeps a QualityTracker
  // on the observer) is checked against a rescan at every episode.
  hooks.on_point = [&](const eval::EpisodePoint& point) {
    if (point.episode == 0) return;
    const EpisodeStats& stats = point.stats;
    for (size_t i = 0; i < changes.size(); ++i) {
      if (changes[i].first.first == engine.partitions().size()) {
        ++extras_changes;
      }
      if (i > 0) {
        EXPECT_LT(changes[i - 1].first, changes[i].first)
            << "episode " << stats.episode << ", change " << i;
      }
      out << changes[i].first.first << ':' << changes[i].first.second
          << (changes[i].second ? '+' : '-') << ' ';
    }
    changes.clear();
    out << stats.episode << ' ' << stats.feedback_items << ' '
        << stats.positive_feedback << ' ' << stats.negative_feedback
        << ' ' << stats.links_added << ' ' << stats.links_removed << ' '
        << stats.rollbacks << ' ' << stats.rolled_back_links << ' '
        << stats.candidate_count << ' ';
    AppendBits(&out, stats.change_fraction);
    const eval::Quality& quality = point.quality;
    eval::Quality rescan = eval::Evaluate(engine.CandidateLinks(), truth);
    EXPECT_EQ(quality.candidates, rescan.candidates);
    EXPECT_EQ(quality.correct, rescan.correct);
    EXPECT_EQ(quality.precision, rescan.precision);
    EXPECT_EQ(quality.recall, rescan.recall);
    EXPECT_EQ(quality.f_measure, rescan.f_measure)
        << "episode " << stats.episode << ", " << threads << " threads";
    out << quality.candidates << ' ' << quality.correct << ' ';
    AppendBits(&out, quality.precision);
    AppendBits(&out, quality.recall);
    AppendBits(&out, quality.f_measure);
    out << '\n';
  };
  Result<eval::ExperimentResult> result = eval::RunEpisodes(
      &engine, truth, "determinism", options.max_episodes,
      [&] {
        return engine.RunEpisode([&oracle](const linking::Link& link) {
          return oracle.Feedback(link);
        });
      },
      hooks);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(extras_changes, 0u) << "no spaceless extra changed";
  out << "converged " << result->converged << " episodes " << result->episodes
      << " relaxed " << result->relaxed_episode << '\n';
  std::vector<linking::Link> links = engine.CandidateLinks();
  std::sort(links.begin(), links.end());
  for (const linking::Link& link : links) {
    out << link.left << " -> " << link.right << '\n';
  }
  out << "oracle " << oracle.items() << ' ' << oracle.errors() << '\n';
  return out.str();
}

void CheckProfile(datagen::WorldProfile profile, double error_rate) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    profile.seed += seed;  // vary the data along with the engine seed
    datagen::GeneratedWorld world = datagen::Generate(profile);
    linking::ParisOptions paris;
    std::vector<linking::Link> initial = linking::FilterByScore(
        linking::RunParis(world.left, world.right, paris), 0.95);
    // Two spaceless extras, so the observer walk always has extras to put
    // last.
    initial.push_back({"http://l/ghost1", "http://r/ghost1", 1.0});
    initial.push_back({"http://l/ghost2", "http://r/ghost2", 1.0});
    feedback::GroundTruth truth(world.ground_truth);

    AlexOptions options;
    options.num_partitions = 4;
    options.episode_size = 200;
    options.max_episodes = 6;
    options.seed = 42 + seed;

    std::string serial =
        RunSerialized(world, initial, truth, options, 1, error_rate);
    for (int threads : {2, 4, 8}) {
      std::string parallel =
          RunSerialized(world, initial, truth, options, threads, error_rate);
      EXPECT_EQ(parallel, serial)
          << "seed " << seed << ", " << threads << " threads";
    }
  }
}

TEST(ParallelEpisodeDeterminismTest, TinyWorldIdenticalSeries) {
  CheckProfile(datagen::TinyTestProfile(), /*error_rate=*/0.0);
}

TEST(ParallelEpisodeDeterminismTest, NbaWorldIdenticalSeries) {
  datagen::WorldProfile profile = datagen::DbpediaNbaNytimesProfile();
  // Scale to test size while keeping the profile's noise character.
  profile.overlap_entities = 120;
  profile.left_only_entities = 60;
  profile.right_only_entities = 40;
  CheckProfile(profile, /*error_rate=*/0.0);
}

TEST(ParallelEpisodeDeterminismTest, NoisyFeedbackStaysDeterministic) {
  // 10% flipped feedback routes negative feedback through blacklisting and
  // rollbacks; the per-link flip sequences (and hence the whole run) must
  // still be interleaving-independent.
  CheckProfile(datagen::TinyTestProfile(), /*error_rate=*/0.1);
}

}  // namespace
}  // namespace alex::core
