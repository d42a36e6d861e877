#include "serving/serving_loop.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "eval/vote_driven.h"

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

// One stream query observation, enough to replay it exactly.
struct StreamRecord {
  size_t query_index = 0;
  uint64_t epoch = 0;
  uint64_t answers_hash = 0;
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

Result<ServingRunResult> RunServingExperiment(
    core::AlexEngine* engine, const datagen::GeneratedWorld& world,
    const feedback::GroundTruth& truth, const ServingLoopOptions& options) {
  if (!options.fault_profile.IsZero() && options.num_streams > 0) {
    return Status::InvalidArgument(
        "endpoint faults need sequential queries: no reader streams");
  }
  ServingRunResult out;
  const std::vector<eval::WorkloadQuery> workload =
      eval::GenerateWorkload(world, options.workload);
  feedback::Oracle oracle(&truth, options.feedback_error_rate,
                          options.oracle_seed);
  Rng rng(options.workload.seed ^ 0x5eedf00dULL);

  ServingOptions serving_options;
  serving_options.sources = {&world.left, &world.right};
  serving_options.use_query_cache = options.use_query_cache;
  serving_options.use_plan_cache = options.use_plan_cache;
  serving_options.fault_profile = options.fault_profile;
  serving_options.resilience = options.resilience;
  // Builds the store indexes and publishes epoch 0.
  ServingEngine serving(serving_options, engine->CandidateLinks());

  // Epoch retention for the identity replay of the streams' answers.
  const bool retain = options.verify_identity && options.num_streams > 0;
  std::unordered_map<uint64_t, std::shared_ptr<const EpochSnapshot>> retained;
  std::shared_ptr<const EpochSnapshot> current = serving.Pin();
  if (retain) retained[current->epoch()] = current;

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
  // The learner starts only once every stream has run its first query, so
  // each stream runs at least one even when the episodes end quickly.
  std::latch streams_started(static_cast<std::ptrdiff_t>(options.num_streams));
  if (options.num_streams > 0) {
    streams =
        std::make_unique<ThreadPool>(static_cast<int>(options.num_streams));
    for (size_t s = 0; s < options.num_streams; ++s) {
      streams->Schedule([&, s] {
        // `stop` is set only after the learner passes the latch, so the
        // first query below always runs before this stream can stop.
        bool started = workload.empty();
        if (started) streams_started.count_down();
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
            if (!started) {
              started = true;
              streams_started.count_down();
            }
            if (!executed.ok()) continue;
            if (records.size() < options.max_stream_records) {
              StreamRecord record;
              record.query_index = index;
              record.epoch = pinned->epoch();
              record.answers_hash = HashAnswers(executed.value().answers);
              records.push_back(record);
            }
            if (aggregator != nullptr) {
              for (const fed::FederatedAnswer& answer :
                   executed.value().answers) {
                for (const linking::Link& link : answer.links_used) {
                  for (int v = 0; v < votes_per_link; ++v) {
                    bool vote = truth.Contains(link);
                    if (options.vote_error_rate > 0.0 &&
                        feedback::HashToUnit(options.vote_seed, link,
                                             vote_index) <
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

  streams_started.wait();

  // -- The learner (publisher) episodes ------------------------------------
  auto episode = [&] {
    core::EpisodeStats stats;
    engine->BeginExternalEpisode();
    // The learner executes against the snapshot it last published — the
    // engine's candidate links as of the previous boundary — on this
    // thread, sequentially: the episode series cannot depend on what the
    // reader streams are doing.
    eval::JudgeQueryAnswers(
        engine, workload,
        [&](const std::string& text) { return current->ExecuteText(text); },
        &oracle, &rng, &stats);

    // Per-epoch cache traffic. Under concurrent streams these counters
    // include stream hits/misses too — they are traffic accounting, not
    // part of the deterministic series.
    eval::TakeCacheStats(current->cache(), current->plan_cache(), &stats);
    const fed::FaultStats faults = serving.federation().TakeFaultStats();
    stats.breaker_opens = faults.breaker_opens;
    stats.breaker_half_opens = faults.breaker_half_opens;
    stats.breaker_closes = faults.breaker_closes;

    // Crowd verdicts: one drained batch per epoch, applied before the
    // boundary sync so the votes the streams cast during this episode land
    // in the epoch about to publish. Quorums the crowd has not reached yet
    // stay pending in the aggregator for the next boundary.
    if (aggregator != nullptr) {
      out.crowd_verdicts +=
          eval::ApplyVerdictBatch(engine, aggregator.get(), &stats);
    }

    // The episode boundary: fires the observer (staging the net membership
    // changes); Publish then freezes them into the next epoch while
    // in-flight stream queries keep their pinned epochs.
    engine->EndExternalEpisode(&stats);
    current = serving.Publish();
    if (retain) retained[current->epoch()] = current;

    ServingEngine::Stats serving_stats = serving.stats();
    stats.epochs_published = serving_stats.epochs_published;
    stats.snapshots_retired = serving_stats.snapshots_retired;
    stats.max_concurrent_readers = serving_stats.max_concurrent_readers;
    return stats;
  };
  // The learner stages every net candidate change; the next Publish turns
  // them into the next epoch (and invalidates exactly those cache entries).
  eval::EpisodeHooks hooks;
  hooks.on_link_change = [&serving](const linking::Link& link, bool added) {
    serving.StageLink(link, added);
  };
  out.experiment = eval::RunEpisodes(engine, truth, "query_driven",
                                     engine->options().max_episodes, episode,
                                     hooks)
                       .value();

  stop.store(true, std::memory_order_release);
  if (streams != nullptr) streams->Wait();
  if (aggregator != nullptr) {
    out.stream_votes = aggregator->stats().votes_recorded;
  }

  // -- Identity gate: sequential replay at the pinned epochs ---------------
  for (const std::vector<StreamRecord>& records : stream_records) {
    out.stream_queries += records.size();
    for (const StreamRecord& record : records) {
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
  return out;
}

}  // namespace alex::serving
