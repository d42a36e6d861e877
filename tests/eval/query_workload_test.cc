#include "eval/query_workload.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "datagen/profiles.h"
#include "linking/paris.h"
#include "serving/serving_loop.h"
#include "sparql/parser.h"

namespace alex::eval {
namespace {

datagen::GeneratedWorld SmallWorld() {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  return datagen::Generate(profile);
}

TEST(WorkloadTest, GeneratesRequestedNumberOfParsableQueries) {
  datagen::GeneratedWorld world = SmallWorld();
  WorkloadOptions options;
  options.num_queries = 50;
  std::vector<WorkloadQuery> workload = GenerateWorkload(world, options);
  EXPECT_EQ(workload.size(), 50u);
  for (const WorkloadQuery& query : workload) {
    Result<sparql::Query> parsed = sparql::ParseQuery(query.text);
    EXPECT_TRUE(parsed.ok())
        << query.text << ": " << parsed.status().ToString();
  }
}

TEST(WorkloadTest, QueriesAreDistinct) {
  datagen::GeneratedWorld world = SmallWorld();
  WorkloadOptions options;
  options.num_queries = 40;
  std::vector<WorkloadQuery> workload = GenerateWorkload(world, options);
  std::unordered_set<std::string> texts;
  for (const WorkloadQuery& query : workload) texts.insert(query.text);
  EXPECT_EQ(texts.size(), workload.size());
}

TEST(WorkloadTest, DeterministicPerSeed) {
  datagen::GeneratedWorld world = SmallWorld();
  WorkloadOptions options;
  options.num_queries = 20;
  std::vector<WorkloadQuery> a = GenerateWorkload(world, options);
  std::vector<WorkloadQuery> b = GenerateWorkload(world, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
}

TEST(WorkloadTest, QueriesSpanBothVocabularies) {
  datagen::GeneratedWorld world = SmallWorld();
  WorkloadOptions options;
  options.num_queries = 30;
  std::vector<WorkloadQuery> workload = GenerateWorkload(world, options);
  int cross_vocabulary = 0;
  for (const WorkloadQuery& query : workload) {
    if (query.text.find("left.example.org") != std::string::npos ||
        query.text.find("rdf-schema#label") != std::string::npos ||
        query.text.find("dbpedia.org") != std::string::npos) {
      // Constrains a left predicate; must project a right-side one for the
      // query to be answerable only across a link.
      ++cross_vocabulary;
    }
  }
  EXPECT_GT(cross_vocabulary, 0);
}

TEST(QueryDrivenTest, ImprovesLinksThroughQueries) {
  datagen::GeneratedWorld world = SmallWorld();
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  core::AlexOptions alex_options;
  alex_options.num_partitions = 2;
  alex_options.num_threads = 1;
  alex_options.episode_size = 120;
  alex_options.max_episodes = 15;
  core::AlexEngine engine(&world.left, &world.right, alex_options);
  ASSERT_TRUE(engine.Initialize(initial).ok());

  serving::ServingLoopOptions options;
  options.workload.num_queries = 150;
  Result<serving::ServingRunResult> run =
      serving::RunServingExperiment(&engine, world, truth, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExperimentResult& result = run->experiment;

  ASSERT_GE(result.series.size(), 2u);
  const Quality& start = result.series[0].quality;
  double best_f = 0.0;
  for (const EpisodePoint& point : result.series) {
    best_f = std::max(best_f, point.quality.f_measure);
  }
  EXPECT_GT(best_f, start.f_measure);
  EXPECT_GT(result.series.back().quality.recall, start.recall);
}

TEST(QueryDrivenTest, FeedbackCountsAreConsistent) {
  datagen::GeneratedWorld world = SmallWorld();
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);
  core::AlexOptions alex_options;
  alex_options.num_partitions = 1;
  alex_options.num_threads = 1;
  alex_options.episode_size = 50;
  alex_options.max_episodes = 3;
  core::AlexEngine engine(&world.left, &world.right, alex_options);
  ASSERT_TRUE(engine.Initialize(initial).ok());

  serving::ServingLoopOptions options;
  options.workload.num_queries = 60;
  Result<serving::ServingRunResult> run =
      serving::RunServingExperiment(&engine, world, truth, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExperimentResult& result = run->experiment;
  for (size_t i = 1; i < result.series.size(); ++i) {
    const core::EpisodeStats& stats = result.series[i].stats;
    EXPECT_EQ(stats.positive_feedback + stats.negative_feedback,
              stats.feedback_items);
    EXPECT_LE(stats.feedback_items, alex_options.episode_size);
  }
}

}  // namespace
}  // namespace alex::eval
