#include "eval/vote_driven.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "eval/metrics.h"

namespace alex::eval {
namespace {

// FNV-1a over a byte string, continuing from `h`.
uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// SplitMix64 finalizer — turns a structured hash into uniform bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from (seed, link, k) — the same pure-hash
// construction as feedback::Oracle, so each user's flip is a function of
// WHAT is voted on, never of which thread cast it.
double HashToUnit(uint64_t seed, const linking::Link& link, uint64_t k) {
  uint64_t h = Fnv1a(link.left, 0xcbf29ce484222325ull);
  h ^= 0x01;
  h *= 0x100000001b3ull;
  h = Fnv1a(link.right, h);
  h = Mix(h ^ Mix(seed) ^ Mix(k * 0x632be59bd9b4e019ull + 1));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

ExperimentResult RunVoteDrivenExperiment(core::AlexEngine* engine,
                                         const feedback::GroundTruth& truth,
                                         const VoteDrivenOptions& options) {
  ExperimentResult result;
  result.profile_name = "vote_driven";
  result.ground_truth_size = truth.size();
  result.total_pairs = engine->total_pair_count();
  result.filtered_pairs = engine->filtered_pair_count();
  result.init_seconds = engine->init_seconds();

  std::vector<linking::Link> initial_links = engine->CandidateLinks();
  result.initial_link_count = initial_links.size();
  for (const linking::Link& link : initial_links) {
    if (truth.Contains(link)) ++result.initial_correct;
  }

  EpisodePoint start;
  start.episode = 0;
  start.quality = Evaluate(initial_links, truth);
  result.series.push_back(start);

  feedback::FeedbackAggregator aggregator(options.aggregator);
  const int users = std::max(1, options.users_per_link);
  const int vote_threads = std::max(1, options.vote_threads);

  Stopwatch run_timer;
  size_t previous_candidates = engine->CandidateCount();
  std::vector<linking::Link> drawn;
  for (int episode = 1; episode <= options.max_episodes; ++episode) {
    core::EpisodeStats stats;
    stats.episode = episode;
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
            HashToUnit(options.vote_seed, link, v) <
                options.vote_error_rate) {
          vote = !vote;
        }
        aggregator.AddVote(link, vote);
      }
    };
    if (vote_threads > 1) {
      std::vector<std::thread> writers;
      writers.reserve(static_cast<size_t>(vote_threads) - 1);
      for (int t = 1; t < vote_threads; ++t) {
        writers.emplace_back(cast_votes, t);
      }
      cast_votes(0);
      for (std::thread& w : writers) w.join();
    } else {
      cast_votes(0);
    }

    // One drained batch per epoch: verdicts arrive sorted by link, and the
    // whole batch is applied before the single EndExternalEpisode sync.
    for (const feedback::LinkVerdict& verdict :
         aggregator.DrainVerdicts(static_cast<uint64_t>(episode))) {
      const core::PartitionAlex::FeedbackOutcome outcome =
          engine->ApplyLinkFeedback(verdict.link, verdict.approve);
      stats.rollbacks += outcome.rollbacks;
      stats.rolled_back_links += outcome.rolled_back_links;
      ++stats.feedback_items;
      if (verdict.approve) {
        ++stats.positive_feedback;
      } else {
        ++stats.negative_feedback;
      }
    }
    const feedback::AggregatorStats agg = aggregator.stats();
    stats.votes_recorded = agg.votes_recorded;
    stats.verdicts_emitted = agg.verdicts_emitted;
    stats.aggregator_pending = agg.pending;
    stats.votes_suppressed = agg.votes_suppressed;
    stats.tallies_evicted = agg.tallies_evicted;

    size_t changed = engine->EndExternalEpisode();
    stats.candidate_count = engine->CandidateCount();
    stats.change_fraction =
        static_cast<double>(changed) /
        static_cast<double>(std::max<size_t>(1, previous_candidates));
    previous_candidates = stats.candidate_count;

    EpisodePoint point;
    point.episode = episode;
    point.stats = stats;
    point.quality = Evaluate(engine->CandidateLinks(), truth);
    result.series.push_back(std::move(point));
    ++result.episodes;
    if (result.relaxed_episode < 0 && stats.change_fraction < 0.05) {
      result.relaxed_episode = episode;
    }
    if (stats.change_fraction == 0.0) {
      result.converged = true;
      break;
    }
  }
  result.total_seconds = run_timer.ElapsedSeconds();
  result.new_links_discovered =
      NewCorrectLinks(initial_links, engine->CandidateLinks(), truth);
  return result;
}

}  // namespace alex::eval
