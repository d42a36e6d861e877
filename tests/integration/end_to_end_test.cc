// End-to-end integration: the full paper pipeline wired together —
// synthetic linked data sets -> PARIS candidate links -> federated SPARQL
// queries whose answers carry link provenance -> user feedback on answers ->
// ALEX exploration improving the link set -> better federated answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "feedback/oracle.h"
#include "linking/paris.h"
#include "rdf/ntriples.h"

namespace alex {
namespace {

using core::AlexEngine;
using core::AlexOptions;
using fed::FederatedAnswer;
using fed::FederatedEngine;
using linking::Link;
using rdf::Term;

TEST(EndToEndTest, FeedbackOnFederatedAnswersImprovesLinks) {
  // Generate a small noisy world.
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  profile.confusable_pairs = 6;
  datagen::GeneratedWorld world = datagen::Generate(profile);
  feedback::GroundTruth truth(world.ground_truth);

  // Initial candidate links from PARIS.
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.episode_size = 60;
  options.max_episodes = 40;
  AlexEngine alex(&world.left, &world.right, options);
  ASSERT_TRUE(alex.Initialize(initial).ok());

  eval::Quality before = eval::Evaluate(alex.CandidateLinks(), truth);

  // Drive episodes through a federated query loop: each episode issues
  // queries whose answers use candidate links, and the user approves or
  // rejects each answer (which ALEX maps to link feedback).
  const std::string kLabel = "http://www.w3.org/2000/01/rdf-schema#label";
  for (int episode = 0; episode < 40; ++episode) {
    // Publish the candidate links for the federation.
    fed::StagedLinkSet staged;
    for (const Link& link : alex.CandidateLinks()) staged.Stage(link, true);
    const std::shared_ptr<const fed::LinkView> links = staged.Publish();
    FederatedEngine fed({&world.left, &world.right}, links.get());

    alex.BeginExternalEpisode();
    size_t feedback_given = 0;
    // A federated query per left entity with a label: fetch the counterpart
    // entity's name on the right side via sameAs bridging.
    Result<fed::FederatedResult> answers = fed.ExecuteText(
        "SELECT ?name WHERE { ?e <" + kLabel + "> ?l . "
        "?e <http://data.nytimes.com/elements/name> ?name }");
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_TRUE(answers->complete);
    for (const FederatedAnswer& answer : answers->answers) {
      for (const Link& used : answer.links_used) {
        alex.ApplyLinkFeedback(used, truth.Contains(used));
        ++feedback_given;
      }
    }
    alex.EndExternalEpisode();
    if (feedback_given == 0) break;
  }

  eval::Quality after = eval::Evaluate(alex.CandidateLinks(), truth);
  EXPECT_GE(after.recall, before.recall);
  EXPECT_GT(after.f_measure, before.f_measure);
  EXPECT_GT(after.precision, 0.9);
}

TEST(EndToEndTest, OracleDrivenRunBeatsInitialQuality) {
  datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.episode_size = 100;
  options.max_episodes = 40;
  AlexEngine alex(&world.left, &world.right, options);
  ASSERT_TRUE(alex.Initialize(initial).ok());
  eval::Quality before = eval::Evaluate(alex.CandidateLinks(), truth);

  feedback::Oracle oracle(&truth, 0.0, 5);
  ASSERT_TRUE(eval::RunEpisodes(&alex, truth, "oracle", options.max_episodes,
                                [&] {
                                  return alex.RunEpisode(
                                      [&oracle](const Link& link) {
                                        return oracle.Feedback(link);
                                      });
                                })
                  .ok());

  eval::Quality after = eval::Evaluate(alex.CandidateLinks(), truth);
  EXPECT_GT(after.f_measure, before.f_measure);
  EXPECT_GT(after.recall, 0.9);
  EXPECT_GT(after.precision, 0.9);
}

TEST(EndToEndTest, DataRoundTripsThroughNTriples) {
  // The generated stores serialize and reload without loss, so the pipeline
  // can run on on-disk N-Triples data too.
  datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  std::string doc = rdf::WriteNTriples(world.left);
  rdf::TripleStore reloaded("reloaded");
  ASSERT_TRUE(rdf::ParseNTriples(doc, &reloaded).ok());
  EXPECT_EQ(reloaded.size(), world.left.size());
  EXPECT_EQ(rdf::WriteNTriples(reloaded), doc);
}

TEST(EndToEndTest, BlacklistReducesRepeatNegatives) {
  // Figure 6(b)'s mechanism at miniature scale: with the blacklist, the
  // user is asked about fewer already-rejected links.
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  profile.confusable_pairs = 20;
  datagen::GeneratedWorld world = datagen::Generate(profile);
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  auto run = [&](bool use_blacklist) {
    AlexOptions options;
    options.num_partitions = 2;
    options.num_threads = 1;
    options.episode_size = 100;
    options.max_episodes = 12;
    options.use_blacklist = use_blacklist;
    AlexEngine alex(&world.left, &world.right, options);
    EXPECT_TRUE(alex.Initialize(initial).ok());
    feedback::Oracle oracle(&truth, 0.0, 5);
    size_t negatives = 0;
    eval::EpisodeHooks hooks;
    hooks.on_point = [&](const eval::EpisodePoint& point) {
      negatives += point.stats.negative_feedback;  // 0 for episode 0
    };
    EXPECT_TRUE(eval::RunEpisodes(
                    &alex, truth, "blacklist", options.max_episodes,
                    [&] {
                      return alex.RunEpisode([&](const Link& link) {
                        return oracle.Feedback(link);
                      });
                    },
                    hooks)
                    .ok());
    return negatives;
  };
  size_t with_blacklist = run(true);
  size_t without_blacklist = run(false);
  EXPECT_LE(with_blacklist, without_blacklist);
}

}  // namespace
}  // namespace alex
