#include "core/alex_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "eval/experiment.h"
#include "feedback/oracle.h"

namespace alex::core {
namespace {

using linking::Link;
using rdf::Term;
using rdf::TripleStore;

// Episodes on `feedback` until one changes no candidate link or
// max_episodes ran: the one episode loop, eval::RunEpisodes, scored against
// an empty ground truth. `on_episode` (optional) sees every episode.
eval::ExperimentResult RunToConvergence(
    AlexEngine* engine, const FeedbackFn& feedback,
    const std::function<void(const EpisodeStats&)>& on_episode = nullptr) {
  const feedback::GroundTruth no_truth;
  eval::EpisodeHooks hooks;
  hooks.on_point = [&](const eval::EpisodePoint& point) {
    if (on_episode && point.episode > 0) on_episode(point.stats);
  };
  return eval::RunEpisodes(engine, no_truth, "test",
                           engine->options().max_episodes,
                           [&] { return engine->RunEpisode(feedback); },
                           hooks)
      .value();
}

// A controlled micro-world: N left/right entities with a single "name"
// attribute whose similarity is dialed in so exploration bands are exactly
// predictable.
class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture() : left_("l"), right_("r") {}

  void AddPair(int id, const std::string& left_name,
               const std::string& right_name) {
    left_.Add(Term::Iri(LeftIri(id)), Term::Iri("http://l/name"),
              Term::StringLiteral(left_name));
    right_.Add(Term::Iri(RightIri(id)), Term::Iri("http://r/label"),
               Term::StringLiteral(right_name));
  }

  static std::string LeftIri(int id) {
    return "http://l/e" + std::to_string(id);
  }
  static std::string RightIri(int id) {
    return "http://r/x" + std::to_string(id);
  }

  AlexOptions SmallOptions() {
    AlexOptions options;
    options.num_partitions = 1;
    options.num_threads = 1;
    options.episode_size = 50;
    options.max_episodes = 20;
    options.seed = 1234;
    return options;
  }

  TripleStore left_;
  TripleStore right_;
};

TEST_F(EngineFixture, InitializeRequiresNonEmptyStores) {
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  Status st = engine.Initialize({});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFixture, DoubleInitializeFails) {
  AddPair(0, "Ada Lovelace", "Ada Lovelace");
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  ASSERT_TRUE(engine.Initialize({}).ok());
  EXPECT_EQ(engine.Initialize({}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineFixture, InitialLinksBecomeCandidates) {
  for (int i = 0; i < 4; ++i) AddPair(i, "Name" + std::to_string(i),
                                      "Name" + std::to_string(i));
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  std::vector<Link> initial = {{LeftIri(0), RightIri(0), 1.0},
                               {LeftIri(1), RightIri(1), 1.0}};
  ASSERT_TRUE(engine.Initialize(initial).ok());
  EXPECT_EQ(engine.CandidateCount(), 2u);
  std::vector<Link> candidates = engine.CandidateLinks();
  EXPECT_EQ(candidates.size(), 2u);
}

TEST_F(EngineFixture, SpacelessInitialLinksKeptAsExtras) {
  AddPair(0, "Ada Lovelace", "Ada Lovelace");
  AddPair(1, "totally unrelated", "different thing");  // filtered out
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  std::vector<Link> initial = {{LeftIri(1), RightIri(1), 1.0}};
  ASSERT_TRUE(engine.Initialize(initial).ok());
  // The pair is not in the feature space but must survive as a candidate.
  EXPECT_EQ(engine.CandidateCount(), 1u);
  // Negative feedback removes it.
  engine.ApplyLinkFeedback(initial[0], false);
  EXPECT_EQ(engine.CandidateCount(), 0u);
}

TEST_F(EngineFixture, PositiveFeedbackDiscoversSimilarLinks) {
  // Ten true pairs with identical names: all in one exploration band.
  for (int i = 0; i < 10; ++i) {
    AddPair(i, "Common Name" + std::to_string(i),
            "Common Name" + std::to_string(i));
  }
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  // Seed with one correct link only.
  ASSERT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());
  EXPECT_EQ(engine.CandidateCount(), 1u);
  engine.BeginExternalEpisode();
  engine.ApplyLinkFeedback({LeftIri(0), RightIri(0), 1.0}, true);
  engine.EndExternalEpisode();
  // The action explored around score 1.0 and pulled in the other pairs
  // whose (name, label) score is within the step (all the exact matches).
  EXPECT_GT(engine.CandidateCount(), 1u);
}

TEST_F(EngineFixture, NegativeFeedbackRemovesLink) {
  AddPair(0, "Ada Lovelace", "Ada Lovelace");
  AddPair(1, "Alan Turing", "Alan Turing");
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  std::vector<Link> initial = {{LeftIri(0), RightIri(0), 1.0},
                               {LeftIri(0), RightIri(1), 1.0}};
  ASSERT_TRUE(engine.Initialize(initial).ok());
  // The wrong pair (e0, x1) has no features -> it is an extra.
  engine.ApplyLinkFeedback({LeftIri(0), RightIri(1), 1.0}, false);
  EXPECT_EQ(engine.CandidateCount(), 1u);
}

TEST_F(EngineFixture, RunAgainstPerfectOracleConverges) {
  for (int i = 0; i < 20; ++i) {
    AddPair(i, "Person Number" + std::to_string(i),
            "Person Number" + std::to_string(i));
  }
  // Ground truth: the identity mapping.
  auto feedback = [](const Link& link) {
    // iri suffixes match: .../eK <-> .../xK
    std::string l = link.left.substr(link.left.find_last_of('e') + 1);
    std::string r = link.right.substr(link.right.find_last_of('x') + 1);
    return l == r;
  };
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  ASSERT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());
  eval::ExperimentResult result = RunToConvergence(&engine, feedback);
  EXPECT_TRUE(result.converged);
  // All 20 true links found; wrong ones pruned.
  std::vector<Link> links = engine.CandidateLinks();
  size_t correct = 0;
  for (const Link& link : links) {
    if (feedback(link)) ++correct;
  }
  EXPECT_EQ(correct, 20u);
  EXPECT_EQ(links.size(), correct);  // perfect precision at convergence
}

TEST_F(EngineFixture, EpisodeStatsAreConsistent) {
  for (int i = 0; i < 8; ++i) {
    AddPair(i, "Entity" + std::to_string(i), "Entity" + std::to_string(i));
  }
  AlexOptions options = SmallOptions();
  options.episode_size = 30;
  AlexEngine engine(&left_, &right_, options);
  ASSERT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());
  EpisodeStats stats = engine.RunEpisode([](const Link&) { return true; });
  EXPECT_EQ(stats.episode, 1);
  EXPECT_EQ(stats.feedback_items, 30u);
  EXPECT_EQ(stats.positive_feedback, 30u);
  EXPECT_EQ(stats.negative_feedback, 0u);
  EXPECT_EQ(stats.candidate_count, engine.CandidateCount());
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.NegativeFeedbackPercent(), 0.0);
}

TEST_F(EngineFixture, AllNegativeFeedbackEmptiesCandidates) {
  for (int i = 0; i < 5; ++i) {
    AddPair(i, "E" + std::to_string(i), "E" + std::to_string(i));
  }
  AlexOptions options = SmallOptions();
  AlexEngine engine(&left_, &right_, options);
  std::vector<Link> initial;
  for (int i = 0; i < 5; ++i) initial.push_back({LeftIri(i), RightIri(i),
                                                 1.0});
  ASSERT_TRUE(engine.Initialize(initial).ok());
  engine.RunEpisode([](const Link&) { return false; });
  EXPECT_EQ(engine.CandidateCount(), 0u);
  // With no candidates, episodes terminate immediately.
  EpisodeStats stats = engine.RunEpisode([](const Link&) { return false; });
  EXPECT_EQ(stats.feedback_items, 0u);
}

TEST_F(EngineFixture, BlacklistPreventsRediscovery) {
  // Pair (e0, x1) is similar to (e0, x0) — a trap. After negative feedback
  // it must never come back.
  AddPair(0, "Twin Name", "Twin Name");
  left_.Add(Term::Iri(LeftIri(1)), Term::Iri("http://l/name"),
            Term::StringLiteral("Twin Name"));
  right_.Add(Term::Iri(RightIri(1)), Term::Iri("http://r/label"),
             Term::StringLiteral("Twin Name"));
  AlexOptions options = SmallOptions();
  options.use_blacklist = true;
  AlexEngine engine(&left_, &right_, options);
  ASSERT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());

  // Reject everything that is not the identity mapping.
  auto feedback = [](const Link& link) {
    return link.left == LeftIri(0) ? link.right == RightIri(0)
                                   : link.right == RightIri(1);
  };
  eval::ExperimentResult result = RunToConvergence(&engine, feedback);
  EXPECT_TRUE(result.converged);
  for (const Link& link : engine.CandidateLinks()) {
    EXPECT_TRUE(feedback(link)) << link.left << " -> " << link.right;
  }
}

TEST_F(EngineFixture, DeterministicUnderSameSeed) {
  for (int i = 0; i < 10; ++i) {
    AddPair(i, "Det" + std::to_string(i), "Det" + std::to_string(i));
  }
  auto run = [&]() {
    AlexOptions options = SmallOptions();
    AlexEngine engine(&left_, &right_, options);
    EXPECT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());
    engine.RunEpisode([](const Link&) { return true; });
    std::vector<Link> links = engine.CandidateLinks();
    std::sort(links.begin(), links.end());
    return links;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(EngineFixture, MultiplePartitionsCoverAllSubjects) {
  for (int i = 0; i < 12; ++i) {
    AddPair(i, "Part" + std::to_string(i), "Part" + std::to_string(i));
  }
  AlexOptions options = SmallOptions();
  options.num_partitions = 4;
  AlexEngine engine(&left_, &right_, options);
  std::vector<Link> initial;
  for (int i = 0; i < 12; ++i) {
    initial.push_back({LeftIri(i), RightIri(i), 1.0});
  }
  ASSERT_TRUE(engine.Initialize(initial).ok());
  EXPECT_EQ(engine.partitions().size(), 4u);
  EXPECT_EQ(engine.CandidateCount(), 12u);
  size_t left_total = 0;
  for (const PartitionAlex& partition : engine.partitions()) {
    left_total += partition.space().left_entities().size();
  }
  EXPECT_EQ(left_total, 12u);
}

TEST_F(EngineFixture, RollbackToggleMatters) {
  // With rollback disabled, junk introduced by a bad action lingers far
  // longer (Figure 7's premise). We only verify the mechanism toggles.
  for (int i = 0; i < 10; ++i) {
    AddPair(i, "Same Exact Name", "Same Exact Name");  // everything matches
  }
  auto run = [&](bool use_rollback) {
    AlexOptions options = SmallOptions();
    options.use_rollback = use_rollback;
    options.use_blacklist = false;
    options.max_episodes = 3;
    AlexEngine engine(&left_, &right_, options);
    EXPECT_TRUE(engine.Initialize({{LeftIri(0), RightIri(0), 1.0}}).ok());
    auto feedback = [](const Link& link) {
      std::string l = link.left.substr(link.left.find_last_of('e') + 1);
      std::string r = link.right.substr(link.right.find_last_of('x') + 1);
      return l == r;
    };
    size_t rollbacks = 0;
    RunToConvergence(&engine, feedback, [&](const EpisodeStats& stats) {
      rollbacks += stats.rollbacks;
    });
    return rollbacks;
  };
  EXPECT_EQ(run(false), 0u);
  EXPECT_GT(run(true), 0u);
}

}  // namespace
}  // namespace alex::core
