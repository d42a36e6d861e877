#include "core/engine_state.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "feedback/oracle.h"
#include "linking/paris.h"

namespace alex::core {
namespace {

using linking::Link;

// Episodes judged by `oracle` until convergence or max_episodes
// (eval::RunEpisodes).
void RunSession(AlexEngine* engine, const feedback::GroundTruth& truth,
                feedback::Oracle* oracle) {
  const Result<eval::ExperimentResult> run = eval::RunEpisodes(
      engine, truth, "session", engine->options().max_episodes, [&] {
        return engine->RunEpisode(
            [oracle](const Link& link) { return oracle->Feedback(link); });
      });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
}

struct SessionParts {
  datagen::GeneratedWorld world;
  feedback::GroundTruth truth;
  std::vector<Link> initial;
};

SessionParts MakeSession() {
  SessionParts parts;
  parts.world = datagen::Generate(datagen::TinyTestProfile());
  parts.truth = feedback::GroundTruth(parts.world.ground_truth);
  parts.initial = linking::FilterByScore(
      linking::RunParis(parts.world.left, parts.world.right), 0.95);
  return parts;
}

AlexOptions SmallOptions() {
  AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.episode_size = 100;
  options.max_episodes = 4;  // learn a bit, stop before convergence
  return options;
}

TEST(EngineStateTest, ExportCapturesLearnedState) {
  SessionParts parts = MakeSession();
  AlexEngine engine(&parts.world.left, &parts.world.right, SmallOptions());
  ASSERT_TRUE(engine.Initialize(parts.initial).ok());
  feedback::Oracle oracle(&parts.truth, 0.0, 7);
  RunSession(&engine, parts.truth, &oracle);

  EngineState state = ExportEngineState(engine);
  EXPECT_EQ(state.candidates.size(), engine.CandidateCount());
  EXPECT_FALSE(state.policy.empty());
  EXPECT_FALSE(state.returns.empty());
}

TEST(EngineStateTest, TextRoundTrip) {
  EngineState state;
  state.candidates = {{"http://l/a", "http://r/x", 1.0}};
  state.blacklist = {{"http://l/b", "http://r/y", 1.0}};
  state.policy.push_back(
      {{"http://l/a", "http://r/x", 1.0}, {"http://l/name", "http://r/n"}});
  state.returns.push_back({{"http://l/a", "http://r/x", 1.0},
                           {"http://l/name", "http://r/n"},
                           2.5,
                           4});
  Result<EngineState> parsed = ParseEngineState(WriteEngineState(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->candidates.size(), 1u);
  EXPECT_EQ(parsed->candidates[0].left, "http://l/a");
  ASSERT_EQ(parsed->blacklist.size(), 1u);
  ASSERT_EQ(parsed->policy.size(), 1u);
  EXPECT_EQ(parsed->policy[0].action.left_predicate, "http://l/name");
  ASSERT_EQ(parsed->returns.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->returns[0].sum, 2.5);
  EXPECT_EQ(parsed->returns[0].count, 4u);
}

TEST(EngineStateTest, ParseErrors) {
  EXPECT_FALSE(ParseEngineState("data before header\n").ok());
  EXPECT_FALSE(ParseEngineState("#bogus\n").ok());
  EXPECT_FALSE(ParseEngineState("#policy\nonlyleft\n").ok());
  EXPECT_FALSE(ParseEngineState("#policy\nl\tr\n").ok());  // 2 < 4 fields
  EXPECT_FALSE(
      ParseEngineState("#returns\nl\tr\tf1\tf2\tnot-a-number\t3\n").ok());
}

TEST(EngineStateTest, ResumedSessionMatchesContinuousRun) {
  SessionParts parts = MakeSession();

  // Session A: run a few episodes, export, "shut down".
  AlexOptions options = SmallOptions();
  AlexEngine first(&parts.world.left, &parts.world.right, options);
  ASSERT_TRUE(first.Initialize(parts.initial).ok());
  feedback::Oracle oracle_a(&parts.truth, 0.0, 11);
  RunSession(&first, parts.truth, &oracle_a);
  EngineState saved = ExportEngineState(first);
  eval::Quality at_save = eval::Evaluate(first.CandidateLinks(),
                                         parts.truth);

  // Session B: fresh process, re-initialize from the same data, import.
  AlexOptions more = options;
  more.max_episodes = 30;
  AlexEngine resumed(&parts.world.left, &parts.world.right, more);
  ASSERT_TRUE(resumed.Initialize(parts.initial).ok());
  ASSERT_TRUE(ImportEngineState(saved, &resumed).ok());
  eval::Quality after_import =
      eval::Evaluate(resumed.CandidateLinks(), parts.truth);
  // The imported session starts exactly where the saved one stopped.
  EXPECT_EQ(after_import.candidates, at_save.candidates);
  EXPECT_DOUBLE_EQ(after_import.f_measure, at_save.f_measure);

  // And learning continues to convergence-quality results.
  feedback::Oracle oracle_b(&parts.truth, 0.0, 13);
  RunSession(&resumed, parts.truth, &oracle_b);
  eval::Quality final_quality =
      eval::Evaluate(resumed.CandidateLinks(), parts.truth);
  EXPECT_GE(final_quality.f_measure, at_save.f_measure - 1e-9);
  EXPECT_GT(final_quality.f_measure, 0.9);
}

TEST(EngineStateTest, FileRoundTrip) {
  SessionParts parts = MakeSession();
  AlexEngine engine(&parts.world.left, &parts.world.right, SmallOptions());
  ASSERT_TRUE(engine.Initialize(parts.initial).ok());
  engine.RunEpisode(
      [&parts](const Link& link) { return parts.truth.Contains(link); });
  EngineState state = ExportEngineState(engine);
  std::string path = ::testing::TempDir() + "/engine_state_test.state";
  ASSERT_TRUE(SaveEngineState(state, path).ok());
  Result<EngineState> loaded = LoadEngineState(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->candidates.size(), state.candidates.size());
  EXPECT_EQ(loaded->policy.size(), state.policy.size());
  EXPECT_EQ(loaded->returns.size(), state.returns.size());
  std::remove(path.c_str());
}

TEST(EngineStateTest, ImportSkipsUnknownEntries) {
  SessionParts parts = MakeSession();
  AlexEngine engine(&parts.world.left, &parts.world.right, SmallOptions());
  ASSERT_TRUE(engine.Initialize(parts.initial).ok());
  EngineState state;
  state.candidates = {{"http://unknown/a", "http://unknown/b", 1.0}};
  state.policy.push_back(
      {{"http://unknown/a", "http://unknown/b", 1.0}, {"p", "q"}});
  state.returns.push_back(
      {{"http://unknown/a", "http://unknown/b", 1.0}, {"p", "q"}, 1.0, 1});
  state.blacklist = {{"http://unknown/c", "http://unknown/d", 1.0}};
  ASSERT_TRUE(ImportEngineState(state, &engine).ok());
  // The unknown candidate survives as a spaceless extra; the rest were
  // silently skipped.
  EXPECT_EQ(engine.CandidateCount(), 1u);
}

}  // namespace
}  // namespace alex::core
