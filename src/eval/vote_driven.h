// Vote-driven feedback at provider scale (paper §6.3 + §7.2).
//
// The paper's batch mode assumes a service provider collecting feedback
// "from many users over a large number of links" and suggests refining it
// "so that ALEX uses only high quality feedback obtained from a large
// number of users". This driver closes that loop: instead of one oracle
// answer per drawn link (eval/experiment.h) or per query answer
// (eval/query_workload.h), every drawn link is judged by `users_per_link`
// simulated users whose individual votes are wrong with `vote_error_rate`
// probability. The votes stream into a sharded feedback::FeedbackAggregator
// from `vote_threads` concurrent writers; at the episode boundary one
// DrainVerdicts batch is applied to the engine through the external-episode
// machinery (ApplyLinkFeedback per verdict, then EndExternalEpisode /
// SyncSpaceToCandidates once), so space and cache invalidation is charged
// once per epoch — never per vote.
//
// Determinism: link draws come from the engine's own RNG streams
// (AlexEngine::SampleFeedbackLinks), each user's flip is a pure hash of
// (seed, link, draw, user) by feedback::HashToUnit, and the aggregator's
// verdict batch depends only on per-link vote multisets — so the full
// episode series is bitwise-identical at any vote_threads and any
// aggregator shard count (asserted by tests/eval/vote_driven_test.cc).
#ifndef ALEX_EVAL_VOTE_DRIVEN_H_
#define ALEX_EVAL_VOTE_DRIVEN_H_

#include "core/alex_engine.h"
#include "eval/experiment.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"

namespace alex::eval {

struct VoteDrivenOptions {
  // Distinct candidate links drawn for user judgment per episode
  // (prioritized when the engine's AlexOptions::prioritized_sampling is
  // on; capped at the live candidate count).
  size_t links_per_episode = 400;
  // Simulated users voting on each drawn link. The episode's vote budget
  // is links_per_episode * users_per_link.
  int users_per_link = 5;
  // Per-user probability of voting wrong (cf. Appendix C's 10% noise —
  // here per vote, to be outvoted by the quorum).
  double vote_error_rate = 0.1;
  uint64_t vote_seed = 777;
  // Concurrent vote-stream writers into the aggregator (votes are striped
  // across them). The series is identical at any count.
  int vote_threads = 1;
  feedback::AggregatorOptions aggregator;
};

// Runs the vote-driven pipeline on an initialized engine for up to the
// engine's AlexOptions::max_episodes; `truth` is both the ground truth the
// users approximate and the quality yardstick. Aggregator counters land in
// each EpisodePoint's stats (votes_recorded, verdicts_emitted,
// aggregator_pending, votes_suppressed, tallies_evicted).
ExperimentResult RunVoteDrivenExperiment(core::AlexEngine* engine,
                                         const feedback::GroundTruth& truth,
                                         const VoteDrivenOptions& options);

// Drains one verdict batch for the engine's current external episode,
// applies it with ApplyLinkFeedback, and copies the aggregator's counters
// into `stats`; returns the verdicts applied. The vote-driven and the
// serving loop's crowd votes share it.
size_t ApplyVerdictBatch(core::AlexEngine* engine,
                         feedback::FeedbackAggregator* aggregator,
                         core::EpisodeStats* stats);

}  // namespace alex::eval

#endif  // ALEX_EVAL_VOTE_DRIVEN_H_
