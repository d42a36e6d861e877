#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "datagen/profiles.h"
#include "eval/report.h"

namespace alex::eval {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  datagen::ProfileByName("tiny", &config.profile);
  config.alex.num_partitions = 2;
  config.alex.num_threads = 1;
  config.alex.episode_size = 100;
  config.alex.max_episodes = 40;
  return config;
}

TEST(ExperimentTest, TinyPipelineRunsAndImproves) {
  Result<ExperimentResult> result = RunExperiment(TinyConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExperimentResult& r = result.value();
  EXPECT_EQ(r.profile_name, "tiny");
  EXPECT_GT(r.ground_truth_size, 0u);
  ASSERT_GE(r.series.size(), 2u);
  EXPECT_EQ(r.series.front().episode, 0);
  // ALEX must not end below the initial quality.
  EXPECT_GE(r.final_quality().f_measure,
            r.series.front().quality.f_measure);
  EXPECT_GT(r.final_quality().f_measure, 0.8);
}

TEST(ExperimentTest, SeriesEpisodesAreSequential) {
  Result<ExperimentResult> result = RunExperiment(TinyConfig());
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->series.size(); ++i) {
    EXPECT_EQ(result->series[i].episode, static_cast<int>(i));
  }
}

TEST(ExperimentTest, CallbackObservesEveryPoint) {
  int points = 0;
  Result<ExperimentResult> result = RunExperiment(
      TinyConfig(), [&points](const EpisodePoint&) { ++points; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(points, static_cast<int>(result->series.size()));
}

TEST(ExperimentTest, ReusesWorldAcrossConfigs) {
  ExperimentConfig config = TinyConfig();
  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right, config.paris),
      config.paris_threshold);
  Result<ExperimentResult> a =
      RunExperimentOnWorld(config, world, initial);
  ASSERT_TRUE(a.ok());
  config.alex.use_blacklist = false;
  Result<ExperimentResult> b =
      RunExperimentOnWorld(config, world, initial);
  ASSERT_TRUE(b.ok());
  // Same starting point regardless of the ALEX configuration.
  EXPECT_DOUBLE_EQ(a->series[0].quality.f_measure,
                   b->series[0].quality.f_measure);
  EXPECT_EQ(a->initial_link_count, b->initial_link_count);
}

TEST(ExperimentTest, IncorrectFeedbackStillImproves) {
  ExperimentConfig config = TinyConfig();
  config.feedback_error_rate = 0.1;
  // Cap the feedback volume at a realistic multiple of the candidate set:
  // with unbounded episodes every link is drawn hundreds of times and even
  // rare double-errors eventually bury correct links (Appendix C runs ~1-4
  // feedback items per link).
  config.alex.max_episodes = 12;
  Result<ExperimentResult> result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  // A single ε-exploration misstep can make any individual episode an
  // outlier at this tiny scale, so assert on the best quality reached in
  // the second half of the run rather than one arbitrary snapshot.
  double best_f = 0.0, best_recall = 0.0;
  for (size_t i = result->series.size() / 2; i < result->series.size();
       ++i) {
    best_f = std::max(best_f, result->series[i].quality.f_measure);
    best_recall = std::max(best_recall, result->series[i].quality.recall);
  }
  EXPECT_GT(best_recall, 0.7);
  EXPECT_GT(best_f, result->series[0].quality.f_measure);
}

TEST(ExperimentTest, DeterministicForFixedSeeds) {
  Result<ExperimentResult> a = RunExperiment(TinyConfig());
  Result<ExperimentResult> b = RunExperiment(TinyConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->episodes, b->episodes);
  EXPECT_DOUBLE_EQ(a->final_quality().f_measure,
                   b->final_quality().f_measure);
}

TEST(ExperimentTest, IncrementalQualityMatchesRescanEveryEpisode) {
  // Drive an engine the way RunExperimentOnWorld does — QualityTracker fed
  // by the link-change observer — and rescan with Evaluate after every
  // episode. A noisy oracle (15% flipped feedback) maximizes churn:
  // negative feedback on correct links exercises blacklisting, repeat
  // removals, rollbacks, and links re-added after removal. The counters
  // must agree with the full rescan bitwise at every point.
  ExperimentConfig config = TinyConfig();
  config.alex.max_episodes = 10;
  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right, config.paris),
      config.paris_threshold);
  feedback::GroundTruth truth(world.ground_truth);

  core::AlexEngine engine(&world.left, &world.right, config.alex);
  ASSERT_TRUE(engine.Initialize(initial).ok());
  feedback::Oracle oracle(&truth, /*error_rate=*/0.15, config.oracle_seed);

  // RunEpisodes keeps each point's quality incrementally (a QualityTracker
  // on the link-change observer); compare it with a rescan at every point.
  int checked = 0;
  EpisodeHooks hooks;
  hooks.on_point = [&](const EpisodePoint& point) {
    const Quality& inc = point.quality;
    Quality full = Evaluate(engine.CandidateLinks(), truth);
    EXPECT_EQ(inc.candidates, full.candidates) << "episode " << point.episode;
    EXPECT_EQ(inc.correct, full.correct) << "episode " << point.episode;
    EXPECT_EQ(inc.precision, full.precision) << "episode " << point.episode;
    EXPECT_EQ(inc.recall, full.recall) << "episode " << point.episode;
    EXPECT_EQ(inc.f_measure, full.f_measure) << "episode " << point.episode;
    EXPECT_EQ(inc.candidates, engine.CandidateCount())
        << "episode " << point.episode;
    ++checked;
  };
  ASSERT_TRUE(RunEpisodes(
                  &engine, truth, "rescan", config.alex.max_episodes,
                  [&] {
                    return engine.RunEpisode(
                        [&oracle](const linking::Link& link) {
                          return oracle.Feedback(link);
                        });
                  },
                  hooks)
                  .ok());
  EXPECT_GT(checked, 0);
  EXPECT_GT(oracle.errors(), 0u);
}

TEST(ExperimentTest, PreparedRightContextGivesIdenticalResults) {
  // The shared-right-context fast path must be observationally identical to
  // letting the engine prepare its own.
  ExperimentConfig config = TinyConfig();
  config.alex.max_episodes = 8;
  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right, config.paris),
      config.paris_threshold);

  Result<ExperimentResult> own = RunExperimentOnWorld(config, world, initial);
  ASSERT_TRUE(own.ok());
  config.right_context = core::RightContext::Prepare(
      world.right, world.right.Subjects(), config.alex.space);
  Result<ExperimentResult> shared =
      RunExperimentOnWorld(config, world, initial);
  ASSERT_TRUE(shared.ok());

  EXPECT_EQ(own->episodes, shared->episodes);
  EXPECT_EQ(own->converged, shared->converged);
  ASSERT_EQ(own->series.size(), shared->series.size());
  for (size_t i = 0; i < own->series.size(); ++i) {
    EXPECT_EQ(own->series[i].quality.candidates,
              shared->series[i].quality.candidates) << "episode " << i;
    EXPECT_EQ(own->series[i].quality.correct,
              shared->series[i].quality.correct) << "episode " << i;
    EXPECT_EQ(own->series[i].quality.f_measure,
              shared->series[i].quality.f_measure) << "episode " << i;
  }
}

TEST(ReportTest, PrintSeriesContainsRows) {
  Result<ExperimentResult> result = RunExperiment(TinyConfig());
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintSeries(os, "Tiny test", result.value());
  PrintSummary(os, result.value());
  std::string text = os.str();
  EXPECT_NE(text.find("Tiny test"), std::string::npos);
  EXPECT_NE(text.find("precision"), std::string::npos);
  EXPECT_NE(text.find("ground truth links"), std::string::npos);
  // One row per series point plus headers.
  size_t lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_GT(lines, result->series.size());
}

}  // namespace
}  // namespace alex::eval
