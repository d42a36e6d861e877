// Parameterized sweep over the data set profiles: for each pair the full
// PARIS -> ALEX pipeline must (a) start in the intended quality regime and
// (b) end with a large improvement. Profiles are scaled down ~4x from the
// benchmark sizes so the whole sweep stays fast.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "datagen/profiles.h"
#include "eval/experiment.h"

namespace alex::eval {
namespace {

struct RegimeCase {
  const char* profile;
  // Expected starting regime for PARIS links (loose bounds).
  double max_initial_precision = 1.01;  // for confusable regimes
  double max_initial_recall = 1.01;     // for noisy regimes
  // Required final quality.
  double min_final_f = 0.9;
};

// gtest would otherwise print the case as raw bytes, which include the
// address of `profile` and so give the test a different name in every run.
void PrintTo(const RegimeCase& c, std::ostream* os) {
  *os << c.profile << "(P0<=" << c.max_initial_precision
     << ",R0<=" << c.max_initial_recall << ",F>=" << c.min_final_f << ")";
}

class ProfileRegimeTest : public ::testing::TestWithParam<RegimeCase> {};

TEST_P(ProfileRegimeTest, PipelineImprovesLinks) {
  const RegimeCase& c = GetParam();
  ExperimentConfig config;
  ASSERT_TRUE(datagen::ProfileByName(c.profile, &config.profile));
  // Scale down ~4x for test speed, preserving the ratios.
  config.profile.overlap_entities /= 4;
  config.profile.left_only_entities /= 4;
  config.profile.right_only_entities /= 4;
  config.profile.confusable_pairs /= 4;
  ASSERT_GE(config.profile.overlap_entities, 8u);
  config.alex.num_partitions = 2;
  config.alex.num_threads = 1;
  config.alex.episode_size = 250;
  config.alex.max_episodes = 30;

  Result<ExperimentResult> result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExperimentResult& r = result.value();

  const Quality& start = r.series[0].quality;
  EXPECT_LE(start.precision, c.max_initial_precision)
      << c.profile << ": starting precision out of regime";
  EXPECT_LE(start.recall, c.max_initial_recall)
      << c.profile << ": starting recall out of regime";

  // ALEX must improve substantially over the PARIS starting point.
  double best_f = 0.0;
  for (size_t i = r.series.size() / 2; i < r.series.size(); ++i) {
    best_f = std::max(best_f, r.series[i].quality.f_measure);
  }
  EXPECT_GE(best_f, c.min_final_f) << c.profile;
  EXPECT_GT(best_f, start.f_measure) << c.profile;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ProfileRegimeTest,
    ::testing::Values(
        // Noisy pairs: PARIS recall must start low.
        RegimeCase{"dbpedia_nytimes", 1.01, 0.75, 0.9},
        RegimeCase{"opencyc_nytimes", 1.01, 0.8, 0.9},
        RegimeCase{"dbpedia_swdf", 1.01, 0.85, 0.9},
        RegimeCase{"dbpedia_nba_nytimes", 1.01, 0.85, 0.85},
        // Confusable pairs: PARIS precision must start low.
        RegimeCase{"dbpedia_drugbank", 0.6, 1.01, 0.9},
        RegimeCase{"opencyc_drugbank", 0.6, 1.01, 0.9},
        // Mixed regimes.
        RegimeCase{"dbpedia_lexvo", 0.85, 0.95, 0.85},
        RegimeCase{"dbpedia_opencyc", 0.95, 0.9, 0.9}),
    [](const ::testing::TestParamInfo<RegimeCase>& info) {
      return std::string(info.param.profile);
    });

}  // namespace
}  // namespace alex::eval
