#include "eval/vote_driven.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "feedback/oracle.h"

namespace alex::eval {

size_t ApplyVerdictBatch(core::AlexEngine* engine,
                         feedback::FeedbackAggregator* aggregator,
                         core::EpisodeStats* stats) {
  const std::vector<feedback::LinkVerdict> verdicts =
      aggregator->DrainVerdicts(static_cast<uint64_t>(engine->episodes_run()));
  for (const feedback::LinkVerdict& verdict : verdicts) {
    engine->ApplyLinkFeedback(verdict.link, verdict.approve);
  }
  const feedback::AggregatorStats agg = aggregator->stats();
  stats->votes_recorded = agg.votes_recorded;
  stats->verdicts_emitted = agg.verdicts_emitted;
  stats->aggregator_pending = agg.pending;
  stats->votes_suppressed = agg.votes_suppressed;
  stats->tallies_evicted = agg.tallies_evicted;
  return verdicts.size();
}

ExperimentResult RunVoteDrivenExperiment(core::AlexEngine* engine,
                                         const feedback::GroundTruth& truth,
                                         const VoteDrivenOptions& options) {
  feedback::FeedbackAggregator aggregator(options.aggregator);
  const int users = std::max(1, options.users_per_link);
  const int vote_threads = std::max(1, options.vote_threads);

  std::vector<linking::Link> drawn;
  auto episode = [&] {
    core::EpisodeStats stats;
    engine->BeginExternalEpisode();

    // The episode's judgment sample, drawn single-threaded from the
    // engine's own RNG streams (prioritized or uniform per AlexOptions).
    drawn.clear();
    engine->SampleFeedbackLinks(options.links_per_episode, &drawn);

    // Expand to the per-user vote schedule. Vote v = draw d, user u; its
    // flip is a pure hash of (seed, link, d * users + u), so the multiset
    // of votes per link — all the aggregator's verdicts can depend on — is
    // fixed before any thread runs.
    auto cast_votes = [&](int thread_index) {
      const size_t total_votes = drawn.size() * static_cast<size_t>(users);
      for (size_t v = static_cast<size_t>(thread_index); v < total_votes;
           v += static_cast<size_t>(vote_threads)) {
        const linking::Link& link = drawn[v / static_cast<size_t>(users)];
        bool vote = truth.Contains(link);
        if (options.vote_error_rate > 0.0 &&
            feedback::HashToUnit(kVoteSeed, link, v) <
                options.vote_error_rate) {
          vote = !vote;
        }
        aggregator.AddVote(link, vote);
      }
    };
    std::vector<std::thread> writers;
    writers.reserve(static_cast<size_t>(vote_threads) - 1);
    for (int t = 1; t < vote_threads; ++t) writers.emplace_back(cast_votes, t);
    cast_votes(0);
    for (std::thread& w : writers) w.join();

    // One drained batch per epoch, applied before the single boundary sync.
    ApplyVerdictBatch(engine, &aggregator, &stats);
    engine->EndExternalEpisode(&stats);
    return stats;
  };
  return RunEpisodes(engine, truth, "vote_driven",
                     engine->options().max_episodes, episode)
      .value();
}

}  // namespace alex::eval
