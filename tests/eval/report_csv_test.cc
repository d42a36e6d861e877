#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/report.h"

namespace alex::eval {
namespace {

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.profile_name = "sample";
  result.ground_truth_size = 10;
  EpisodePoint p0;
  p0.episode = 0;
  p0.quality.precision = 0.5;
  p0.quality.recall = 0.25;
  p0.quality.f_measure = 1.0 / 3.0;
  p0.quality.candidates = 5;
  result.series.push_back(p0);
  EpisodePoint p1;
  p1.episode = 1;
  p1.quality.precision = 1.0;
  p1.quality.recall = 0.9;
  p1.quality.f_measure = 2 * 1.0 * 0.9 / 1.9;
  p1.quality.candidates = 9;
  p1.stats.episode = 1;
  p1.stats.feedback_items = 100;
  p1.stats.negative_feedback = 25;
  p1.stats.positive_feedback = 75;
  p1.stats.seconds = 0.125;
  result.series.push_back(p1);
  result.episodes = 1;
  result.relaxed_episode = 1;
  return result;
}

TEST(ReportCsvTest, HeaderAndRows) {
  std::ostringstream os;
  WriteSeriesCsv(os, SampleResult());
  std::string csv = os.str();
  EXPECT_EQ(csv.find("episode,precision,recall,f_measure,"
                     "neg_feedback_pct,candidates,seconds,"
                     "incomplete_queries,skipped_feedback,query_retries,"
                     "breaker_opens,epochs_published,snapshots_retired,"
                     "max_concurrent_readers,votes_recorded,"
                     "verdicts_emitted,aggregator_pending,votes_suppressed,"
                     "tallies_evicted,triples_ingested,entities_added,"
                     "blocking_merges,space_overflow_pairs,ingest_epochs"),
            0u);
  // One header + two data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("\n0,0.5,0.25,"), std::string::npos);
  EXPECT_NE(csv.find(",25,"), std::string::npos);  // 25% negative feedback
}

TEST(ReportCsvTest, SaveAndReadBack) {
  std::string path = ::testing::TempDir() + "/report_series.csv";
  ASSERT_TRUE(SaveSeriesCsv(path, SampleResult()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.find("episode,"), 0u);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

TEST(ReportCsvTest, SaveToBadPathFails) {
  EXPECT_FALSE(SaveSeriesCsv("/nonexistent/dir/x.csv", SampleResult()));
}

TEST(ReportTest, SummaryMentionsRelaxedEpisode) {
  std::ostringstream os;
  PrintSummary(os, SampleResult());
  EXPECT_NE(os.str().find("episode 1"), std::string::npos);
}

TEST(ReportTest, SummaryNeverConverged) {
  ExperimentResult result = SampleResult();
  result.relaxed_episode = -1;
  std::ostringstream os;
  PrintSummary(os, result);
  EXPECT_NE(os.str().find("never"), std::string::npos);
  EXPECT_NE(os.str().find("max episodes reached"), std::string::npos);
}

TEST(ReportTest, SummaryShowsServingBlockOnlyWhenServed) {
  ExperimentResult plain = SampleResult();
  std::ostringstream without;
  PrintSummary(without, plain);
  EXPECT_EQ(without.str().find("epochs published"), std::string::npos);

  ExperimentResult served = SampleResult();
  served.series.back().stats.epochs_published = 7;
  served.series.back().stats.snapshots_retired = 5;
  served.series.back().stats.max_concurrent_readers = 4;
  std::ostringstream with;
  PrintSummary(with, served);
  EXPECT_NE(with.str().find("epochs published:        7"), std::string::npos);
  EXPECT_NE(with.str().find("snapshots retired:       5"), std::string::npos);
  EXPECT_NE(with.str().find("max concurrent readers:  4"), std::string::npos);
}

TEST(ReportTest, SummaryShowsFeedbackBlockOnlyWhenVotesFlowed) {
  ExperimentResult plain = SampleResult();
  std::ostringstream without;
  PrintSummary(without, plain);
  EXPECT_EQ(without.str().find("votes recorded"), std::string::npos);

  ExperimentResult voted = SampleResult();
  voted.series.back().stats.votes_recorded = 2000;
  voted.series.back().stats.verdicts_emitted = 380;
  voted.series.back().stats.votes_suppressed = 190;
  voted.series.back().stats.tallies_evicted = 3;
  voted.series.back().stats.aggregator_pending = 17;
  std::ostringstream with;
  PrintSummary(with, voted);
  EXPECT_NE(with.str().find("votes recorded:          2000"),
            std::string::npos);
  EXPECT_NE(with.str().find("verdicts emitted:        380"),
            std::string::npos);
  EXPECT_NE(with.str().find("votes suppressed:        190"),
            std::string::npos);
  EXPECT_NE(with.str().find("tallies evicted:         3 (17 still pending)"),
            std::string::npos);
}

TEST(ReportCsvTest, RowsCarryIngestCounters) {
  ExperimentResult result = SampleResult();
  core::EpisodeStats& stats = result.series.back().stats;
  stats.triples_ingested = 640;
  stats.entities_added = 32;
  stats.blocking_merges = 5;
  stats.space_overflow_pairs = 77;
  stats.ingest_epochs = 4;
  std::ostringstream os;
  WriteSeriesCsv(os, result);
  std::string csv = os.str();
  // The ingest counters are the trailing five columns of the episode row.
  EXPECT_NE(csv.find(",640,32,5,77,4\n"), std::string::npos);
  // Episode 0 (the pre-growth baseline) reports zeros.
  EXPECT_NE(csv.find(",0,0,0,0,0\n"), std::string::npos);
}

TEST(ReportTest, SummaryShowsIngestBlockOnlyWhenStoresGrew) {
  ExperimentResult plain = SampleResult();
  std::ostringstream without;
  PrintSummary(without, plain);
  EXPECT_EQ(without.str().find("triples ingested"), std::string::npos);

  ExperimentResult grown = SampleResult();
  grown.series.back().stats.ingest_epochs = 4;
  grown.series.back().stats.triples_ingested = 640;
  grown.series.back().stats.entities_added = 32;
  grown.series.back().stats.blocking_merges = 5;
  grown.series.back().stats.space_overflow_pairs = 77;
  std::ostringstream with;
  PrintSummary(with, grown);
  EXPECT_NE(with.str().find("ingest epochs:           4"), std::string::npos);
  EXPECT_NE(with.str().find("triples ingested:        640"),
            std::string::npos);
  EXPECT_NE(with.str().find("entities added:          32"),
            std::string::npos);
  EXPECT_NE(with.str().find("blocking merges:         5"), std::string::npos);
  EXPECT_NE(with.str().find("space overflow entries:  77"),
            std::string::npos);
}

TEST(ReportTest, SeriesMarksRelaxedConvergence) {
  std::ostringstream os;
  PrintSeries(os, "T", SampleResult());
  EXPECT_NE(os.str().find("<- relaxed convergence (<5% change)"),
            std::string::npos);
}

TEST(ReportTest, SeriesLabelsTheRelaxedFractionTheRunUsed) {
  ExperimentConfig config;
  config.profile = datagen::TinyTestProfile();
  config.alex.num_partitions = 2;
  config.alex.episode_size = 100;
  config.alex.max_episodes = 8;
  config.alex.relaxed_change_fraction = 0.1;
  Result<ExperimentResult> result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->relaxed_episode, 0);
  std::ostringstream os;
  PrintSeries(os, "T", result.value());
  EXPECT_NE(os.str().find("<- relaxed convergence (<10% change)"),
            std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace alex::eval
