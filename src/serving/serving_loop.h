// The query-driven experiment (the paper's §3.2 loop), on the serving tier.
//
// Each learner episode runs the federated workload against the epoch it
// last published, judges every complete answer with the oracle
// (eval::JudgeQueryAnswers) and feeds the verdicts to the engine; at the
// episode boundary the engine's net link changes are staged and published
// as the next EpochSnapshot. Staging and publishing is the only way learned
// links reach federated queries, and the carried-forward result cache the
// only invalidation. Meanwhile `num_streams` reader threads continuously
// execute the workload against whatever epoch each query pins; with zero
// streams this is the plain query-driven loop.
//
// Properties this construction guarantees (and tests/bench assert):
//
//   * The learner's episode series (quality, feedback and candidate counts)
//     does not depend on the reader streams: the learner executes on its
//     own thread against the snapshot it just published, and readers share
//     nothing mutable with it beyond thread-safe caches whose hits are
//     byte-identical to re-execution.
//   * Endpoint faults (`fault_profile`) keep one breaker state, virtual
//     clock and fault counter set across every epoch, and run only without
//     reader streams (the resilient path is sequential).
//   * Epoch pinning: a stream query that pinned epoch E observes E's links
//     even if the learner publishes E+1..E+k mid-flight.
//   * Every recorded stream answer set is bitwise-identical to a sequential
//     replay against the same epoch's retained snapshot (the identity gate:
//     hashes of the full row sets compare equal).
#ifndef ALEX_SERVING_SERVING_LOOP_H_
#define ALEX_SERVING_SERVING_LOOP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/alex_engine.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "eval/query_workload.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"
#include "serving/serving_engine.h"

namespace alex::serving {

// Episode size and cap come from the engine's AlexOptions (episode_size,
// max_episodes).
struct ServingLoopOptions {
  eval::WorkloadOptions workload;
  double feedback_error_rate = 0.0;
  uint64_t oracle_seed = 99;
  // The serving tier over the world's two stores (see ServingOptions). The
  // series is bitwise-identical with either cache on or off. A non-zero
  // fault profile requires num_streams == 0: queries whose answers come
  // back incomplete produce no feedback (EpisodeStats::skipped_feedback),
  // and with a fixed profile seed the series is bitwise-identical at any
  // thread count.
  bool use_query_cache = true;
  bool use_plan_cache = true;
  fed::FaultProfile fault_profile;
  fed::Resilience resilience;
  // Concurrent reader streams executing the workload against the serving
  // engine while the learner runs. 0 = learner only (no reader threads).
  size_t num_streams = 0;
  // Retain every published snapshot and, after the streams drain, re-execute
  // each recorded stream query sequentially against its pinned epoch,
  // comparing answer hashes. Costs memory (snapshots survive the run) and
  // replay time.
  bool verify_identity = true;
  // Crowd votes riding on serving traffic. 0 = off (the default, which is
  // what the series-identity guarantee above assumes). When > 0, every
  // reader stream casts this many noisy votes per link in each answer's
  // provenance into a shared sharded FeedbackAggregator, and the learner
  // drains ONE verdict batch per episode boundary — applied through
  // ApplyLinkFeedback before the publish — so feedback volume scales with
  // how much traffic the streams actually served. The learner series then
  // intentionally depends on stream timing; epoch-pinned answer identity
  // still holds and is still verified.
  int votes_per_answer_link = 0;
  // Each vote's flip is feedback::HashToUnit(eval::kVoteSeed, link, index).
  double vote_error_rate = 0.1;
  feedback::AggregatorOptions aggregator;
};

struct ServingRunResult {
  // The learner series.
  eval::ExperimentResult experiment;
  ServingEngine::Stats serving;
  // Reader-stream queries recorded (at most 4096 a stream).
  size_t stream_queries = 0;
  // Identity gate: recorded stream queries replayed against their pinned
  // epoch, and how many replays hashed identically. verified == replayed
  // iff snapshot isolation held. Both 0 when verify_identity was off or
  // num_streams == 0.
  size_t identity_replayed = 0;
  size_t identity_verified = 0;
  // Crowd-vote pipeline (votes_per_answer_link > 0): total votes the reader
  // streams cast, and how many drained verdicts the learner applied.
  size_t stream_votes = 0;
  size_t crowd_verdicts = 0;

  bool identity_ok() const { return identity_verified == identity_replayed; }
};

// Deterministic 64-bit digest of a federated answer set, order-sensitive:
// equal iff the rows (variable bindings, in result order) are identical.
uint64_t HashAnswers(const std::vector<fed::FederatedAnswer>& answers);

// Runs the experiment. `engine` must be initialized; installs its own
// link-change observer for the duration (replacing any existing one).
// InvalidArgument for a non-zero fault profile with reader streams.
Result<ServingRunResult> RunServingExperiment(
    core::AlexEngine* engine, const datagen::GeneratedWorld& world,
    const feedback::GroundTruth& truth, const ServingLoopOptions& options);

}  // namespace alex::serving

#endif  // ALEX_SERVING_SERVING_LOOP_H_
