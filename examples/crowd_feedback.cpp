// Crowd feedback: many noisy users, one clean learner.
//
// The paper's batch-mode setting assumes a service provider collecting
// feedback from many users (§7.2), and §6.3 suggests refining raw feedback
// so that "ALEX uses only high quality feedback obtained from a large
// number of users". This example wires the FeedbackAggregator between a
// simulated crowd (every user is wrong 25% of the time!) and the ALEX
// engine: votes are tallied per link and only majority verdicts reach the
// learner. Compare the result against feeding the same raw noisy votes
// straight in.
#include <iomanip>
#include <iostream>

#include "core/alex_engine.h"
#include "eval/experiment.h"
#include "datagen/profiles.h"
#include "eval/metrics.h"
#include "eval/vote_driven.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"
#include "linking/paris.h"

using alex::core::AlexEngine;
using alex::core::AlexOptions;
using alex::linking::Link;

namespace {

constexpr double kUserErrorRate = 0.25;
constexpr int kVotesPerItem = 5;

AlexOptions MakeOptions() {
  AlexOptions options;
  options.num_partitions = 2;
  options.episode_size = 400;
  options.max_episodes = 12;
  return options;
}

}  // namespace

int main() {
  alex::datagen::WorldProfile profile =
      alex::datagen::OpencycNytimesProfile();
  alex::datagen::GeneratedWorld world = alex::datagen::Generate(profile);
  alex::feedback::GroundTruth truth(world.ground_truth);
  std::vector<Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right), 0.95);

  std::cout << std::fixed << std::setprecision(3);

  // Run 1: raw noisy feedback, one vote per item.
  double raw_f = 0.0;
  {
    AlexEngine engine(&world.left, &world.right, MakeOptions());
    if (!engine.Initialize(initial).ok()) return 1;
    alex::feedback::Oracle noisy(&truth, kUserErrorRate, 404);
    alex::Result<alex::eval::ExperimentResult> result =
        alex::eval::RunEpisodes(&engine, truth, "raw",
                                MakeOptions().max_episodes, [&] {
                                  return engine.RunEpisode(
                                      [&noisy](const Link& link) {
                                        return noisy.Feedback(link);
                                      });
                                });
    if (!result.ok()) return 1;
    const alex::eval::Quality& q = result->final_quality();
    raw_f = q.f_measure;
    std::cout << "raw noisy feedback (25% wrong):    P=" << q.precision
              << " R=" << q.recall << " F=" << q.f_measure << "\n";
  }

  // Run 2: the same noisy crowd, but through the vote-driven pipeline —
  // every drawn link is judged by five users, the votes stream into the
  // sharded aggregator from two writer threads, and one drained verdict
  // batch per episode reaches ALEX.
  double voted_f = 0.0;
  {
    AlexEngine engine(&world.left, &world.right, MakeOptions());
    if (!engine.Initialize(initial).ok()) return 1;
    alex::eval::VoteDrivenOptions vote_options;
    vote_options.links_per_episode = 400;
    vote_options.users_per_link = kVotesPerItem;
    vote_options.vote_error_rate = kUserErrorRate;
    vote_options.vote_threads = 2;
    vote_options.aggregator.quorum = kVotesPerItem;
    alex::eval::ExperimentResult result =
        alex::eval::RunVoteDrivenExperiment(&engine, truth, vote_options);
    const alex::eval::Quality& q = result.final_quality();
    voted_f = q.f_measure;
    const alex::core::EpisodeStats& last = result.series.back().stats;
    std::cout << "majority of " << kVotesPerItem
              << " noisy votes per link:  P=" << q.precision
              << " R=" << q.recall << " F=" << q.f_measure << "\n"
              << "  (" << last.votes_recorded << " votes -> "
              << last.verdicts_emitted << " verdicts, "
              << last.votes_suppressed << " noisy votes suppressed)\n";
  }

  std::cout << "\nAggregating the crowd's votes suppresses most of the\n"
               "erroneous feedback before it reaches the learner.\n";
  return voted_f > raw_f ? 0 : 1;
}
