#include "serving/serving_loop.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"

namespace alex::serving {
namespace {

void MixBytes(uint64_t* hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *hash ^= c;
    *hash *= 1099511628211ull;
  }
  // Separator so concatenation ambiguity cannot collide fields.
  *hash ^= 0xff;
  *hash *= 1099511628211ull;
}

// SplitMix64 finalizer — turns a structured hash into uniform bits.
uint64_t MixWord(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from (seed, link, k) — the pure-hash vote-flip
// construction shared with eval::RunVoteDrivenExperiment: each vote's error
// is a function of what is voted on, never of which stream cast it.
double VoteUnit(uint64_t seed, const linking::Link& link, uint64_t k) {
  uint64_t h = 1469598103934665603ull;
  MixBytes(&h, link.left);
  MixBytes(&h, link.right);
  h = MixWord(h ^ MixWord(seed) ^ MixWord(k * 0x632be59bd9b4e019ull + 1));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// One stream query observation, enough to replay it exactly.
struct StreamRecord {
  size_t query_index = 0;
  uint64_t epoch = 0;
  uint64_t answers_hash = 0;
  size_t rows = 0;
};

}  // namespace

uint64_t HashAnswers(const std::vector<fed::FederatedAnswer>& answers) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  for (const fed::FederatedAnswer& answer : answers) {
    for (const auto& [var, term] : answer.binding) {  // std::map: sorted
      MixBytes(&hash, var);
      MixBytes(&hash, term.lexical());
    }
    for (const linking::Link& link : answer.links_used) {
      MixBytes(&hash, link.left);
      MixBytes(&hash, link.right);
    }
    hash ^= 0xfe;
    hash *= 1099511628211ull;
  }
  return hash;
}

ServingRunResult RunServingExperiment(core::AlexEngine* engine,
                                      const datagen::GeneratedWorld& world,
                                      const feedback::GroundTruth& truth,
                                      const ServingLoopOptions& options) {
  ServingRunResult out;
  eval::ExperimentResult& result = out.experiment;
  result.profile_name = "serving";
  result.ground_truth_size = truth.size();
  result.total_pairs = engine->total_pair_count();
  result.filtered_pairs = engine->filtered_pair_count();
  result.init_seconds = engine->init_seconds();

  std::vector<linking::Link> initial_links = engine->CandidateLinks();
  result.initial_link_count = initial_links.size();
  for (const linking::Link& link : initial_links) {
    if (truth.Contains(link)) ++result.initial_correct;
  }

  std::vector<eval::WorkloadQuery> workload =
      eval::GenerateWorkload(world, options.workload);
  feedback::Oracle oracle(&truth, options.feedback_error_rate,
                          options.oracle_seed);
  // Same stream as the plain query-driven loop, so the two runs shuffle the
  // workload identically — a precondition for series identity.
  Rng rng(options.workload.seed ^ 0x5eedf00dULL);

  eval::EpisodePoint start;
  start.episode = 0;
  start.quality = eval::Evaluate(initial_links, truth);
  result.series.push_back(start);

  // Warm the store indexes before any concurrent reads (index build is
  // lazy and not thread-safe on first touch).
  for (const rdf::TripleStore* source :
       {&world.left, &world.right}) {
    (void)source->size();
  }

  ServingOptions serving_options;
  serving_options.sources = {&world.left, &world.right};
  serving_options.use_query_cache = options.use_query_cache;
  serving_options.use_plan_cache = options.use_plan_cache;
  serving_options.merge_fraction = options.merge_fraction;
  ServingEngine serving(serving_options, initial_links);  // publishes epoch 0

  // Epoch retention for the identity replay.
  std::unordered_map<uint64_t, std::shared_ptr<const EpochSnapshot>> retained;
  std::shared_ptr<const EpochSnapshot> current = serving.Pin();
  if (options.verify_identity) retained[current->epoch()] = current;

  // The learner stages every net candidate change; the next Publish turns
  // them into the next epoch (and invalidates exactly those cache entries).
  engine->SetLinkChangeObserver(
      [&serving](const linking::Link& link, bool added) {
        serving.StageLink(link, added);
      });

  // -- Crowd votes riding on stream traffic --------------------------------
  // Opt-in: every answer a stream serves yields votes_per_answer_link noisy
  // votes per provenance link, funneled into the sharded aggregator. The
  // learner drains one verdict batch per episode boundary below.
  const int votes_per_link = std::max(0, options.votes_per_answer_link);
  std::unique_ptr<feedback::FeedbackAggregator> aggregator;
  if (votes_per_link > 0 && options.num_streams > 0) {
    aggregator =
        std::make_unique<feedback::FeedbackAggregator>(options.aggregator);
  }

  // -- Reader streams ------------------------------------------------------
  std::atomic<bool> stop{false};
  std::vector<std::vector<StreamRecord>> stream_records(options.num_streams);
  std::unique_ptr<ThreadPool> streams;
  if (options.num_streams > 0) {
    streams =
        std::make_unique<ThreadPool>(static_cast<int>(options.num_streams));
    for (size_t s = 0; s < options.num_streams; ++s) {
      streams->Schedule([&, s] {
        Rng stream_rng(options.workload.seed ^ (0xabcdull + 31 * s));
        std::vector<size_t> order(workload.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::vector<StreamRecord>& records = stream_records[s];
        // Distinct per-stream vote index space, so two streams voting on
        // the same link are two different (possibly disagreeing) users.
        uint64_t vote_index = s << 40;
        while (!stop.load(std::memory_order_acquire)) {
          stream_rng.Shuffle(&order);
          for (size_t index : order) {
            if (stop.load(std::memory_order_acquire)) break;
            std::shared_ptr<const EpochSnapshot> pinned;
            Result<fed::FederatedResult> executed =
                serving.ExecuteText(workload[index].text, {}, &pinned);
            if (!executed.ok()) continue;
            if (records.size() < options.max_stream_records) {
              StreamRecord record;
              record.query_index = index;
              record.epoch = pinned->epoch();
              record.answers_hash = HashAnswers(executed.value().answers);
              record.rows = executed.value().answers.size();
              records.push_back(record);
            }
            if (aggregator != nullptr) {
              for (const fed::FederatedAnswer& answer :
                   executed.value().answers) {
                for (const linking::Link& link : answer.links_used) {
                  for (int v = 0; v < votes_per_link; ++v) {
                    bool vote = truth.Contains(link);
                    if (options.vote_error_rate > 0.0 &&
                        VoteUnit(options.vote_seed, link, vote_index) <
                            options.vote_error_rate) {
                      vote = !vote;
                    }
                    ++vote_index;
                    aggregator->AddVote(link, vote);
                  }
                }
              }
            }
          }
        }
      });
    }
  }

  // -- The learner (publisher) loop ---------------------------------------
  Stopwatch run_timer;
  size_t previous_candidates = engine->CandidateCount();
  for (int episode = 1; episode <= options.max_episodes; ++episode) {
    core::EpisodeStats stats;
    stats.episode = episode;
    engine->BeginExternalEpisode();

    std::vector<size_t> order(workload.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);

    // The learner executes against the snapshot it last published — the
    // exact link content the mutable LinkSet would hold at this point — on
    // this thread, sequentially: the episode series cannot depend on what
    // the reader streams are doing.
    std::unordered_set<linking::Link, linking::LinkHash> judged;
    for (size_t index : order) {
      if (stats.feedback_items >= options.episode_size) break;
      Result<fed::FederatedResult> executed =
          current->ExecuteText(workload[index].text);
      if (!executed.ok()) continue;
      const fed::FederatedResult& result_set = executed.value();
      if (!result_set.complete) {
        ++stats.incomplete_queries;
        continue;
      }
      for (const fed::FederatedAnswer& answer : result_set.answers) {
        if (stats.feedback_items >= options.episode_size) break;
        // §3.2: the verdict on an answer applies to every link in its
        // provenance; each link is judged at most once per episode.
        for (const linking::Link& link : answer.links_used) {
          if (!judged.insert(link).second) continue;
          bool approved = oracle.Feedback(link);
          const core::PartitionAlex::FeedbackOutcome outcome =
              engine->ApplyLinkFeedback(link, approved);
          stats.rollbacks += outcome.rollbacks;
          stats.rolled_back_links += outcome.rolled_back_links;
          ++stats.feedback_items;
          if (approved) {
            ++stats.positive_feedback;
          } else {
            ++stats.negative_feedback;
          }
        }
      }
    }

    // Per-epoch cache traffic. Under concurrent streams these counters
    // include stream hits/misses too — they are traffic accounting, not
    // part of the deterministic series.
    if (current->cache() != nullptr) {
      fed::FederatedQueryCache::Stats cache_stats =
          current->cache()->TakeStats();
      stats.query_cache_hits = cache_stats.hits;
      stats.query_cache_misses = cache_stats.misses;
    }
    if (current->plan_cache() != nullptr) {
      sparql::PlanCache::Stats plan_stats = current->plan_cache()->TakeStats();
      stats.plan_cache_hits = plan_stats.parse_hits + plan_stats.plan_hits;
      stats.plan_cache_misses =
          plan_stats.parse_misses + plan_stats.plan_misses;
    }

    // Crowd verdicts: one drained batch per epoch, applied before the
    // boundary sync so the votes the streams cast during this episode land
    // in the epoch about to publish. Quorums the crowd has not reached yet
    // stay pending in the aggregator for the next boundary.
    if (aggregator != nullptr) {
      for (const feedback::LinkVerdict& verdict :
           aggregator->DrainVerdicts(static_cast<uint64_t>(episode))) {
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
        ++out.crowd_verdicts;
      }
      feedback::AggregatorStats agg = aggregator->stats();
      stats.votes_recorded = agg.votes_recorded;
      stats.verdicts_emitted = agg.verdicts_emitted;
      stats.aggregator_pending = agg.pending;
      stats.votes_suppressed = agg.votes_suppressed;
      stats.tallies_evicted = agg.tallies_evicted;
    }

    // The episode boundary: fires the observer (staging the net membership
    // changes) and reports their count; Publish then freezes them into the
    // next epoch while in-flight stream queries keep their pinned epochs.
    size_t changed = engine->EndExternalEpisode();
    current = serving.Publish();
    if (options.verify_identity) retained[current->epoch()] = current;

    ServingEngine::Stats serving_stats = serving.stats();
    stats.epochs_published = serving_stats.epochs_published;
    stats.snapshots_retired = serving_stats.snapshots_retired;
    stats.max_concurrent_readers = serving_stats.max_concurrent_readers;

    stats.candidate_count = engine->CandidateCount();
    stats.change_fraction =
        static_cast<double>(changed) /
        static_cast<double>(std::max<size_t>(1, previous_candidates));
    previous_candidates = stats.candidate_count;

    eval::EpisodePoint point;
    point.episode = episode;
    point.stats = stats;
    point.quality = eval::Evaluate(engine->CandidateLinks(), truth);
    result.series.push_back(point);
    ++result.episodes;
    if (result.relaxed_episode < 0 && stats.change_fraction < 0.05) {
      result.relaxed_episode = episode;
    }
    if (stats.feedback_items == 0 || stats.change_fraction == 0.0) {
      result.converged = stats.change_fraction == 0.0;
      break;
    }
  }
  engine->SetLinkChangeObserver(nullptr);

  stop.store(true, std::memory_order_release);
  if (streams != nullptr) streams->Wait();
  if (aggregator != nullptr) {
    out.stream_votes = aggregator->stats().votes_recorded;
  }
  result.total_seconds = run_timer.ElapsedSeconds();
  result.new_links_discovered =
      eval::NewCorrectLinks(initial_links, engine->CandidateLinks(), truth);

  // -- Identity gate: sequential replay at the pinned epochs ---------------
  for (const std::vector<StreamRecord>& records : stream_records) {
    out.stream_queries += records.size();
    for (const StreamRecord& record : records) {
      out.stream_rows += record.rows;
      if (!options.verify_identity) continue;
      auto it = retained.find(record.epoch);
      if (it == retained.end()) continue;  // cannot happen: epochs retained
      ++out.identity_replayed;
      Result<fed::FederatedResult> replayed =
          it->second->ExecuteText(workload[record.query_index].text);
      if (replayed.ok() &&
          HashAnswers(replayed.value().answers) == record.answers_hash) {
        ++out.identity_verified;
      }
    }
  }

  out.serving = serving.stats();
  const LatencyHistogram& latency = serving.latency();
  out.latency_p50_ms = latency.PercentileMicros(0.50) / 1000.0;
  out.latency_p90_ms = latency.PercentileMicros(0.90) / 1000.0;
  out.latency_p99_ms = latency.PercentileMicros(0.99) / 1000.0;
  out.latency_max_ms = static_cast<double>(latency.max_micros()) / 1000.0;
  out.latency_mean_ms = latency.MeanMicros() / 1000.0;
  return out;
}

}  // namespace alex::serving
