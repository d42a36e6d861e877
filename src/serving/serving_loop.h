// The serving experiment: concurrent query streams over a live learner.
//
// RunServingExperiment reproduces eval::RunQueryDrivenExperiment's
// feedback loop — same workload, same shuffle RNG, same oracle, same
// episode boundaries, the same eval::JudgeQueryAnswers — but routes all
// federation state through the serving tier: the learner stages its
// per-episode link changes and publishes an EpochSnapshot at every
// boundary, while `num_streams` reader threads continuously execute the
// workload against whatever epoch each query pins.
//
// Properties this construction guarantees (and tests/bench assert):
//
//   * The learner's episode series (quality, feedback and candidate counts)
//     is bitwise-identical to the plain query-driven run: the learner
//     executes against the snapshot it just published — which holds exactly
//     the links the mutable LinkSet would hold — and readers share nothing
//     mutable with it beyond thread-safe caches whose hits are
//     byte-identical to re-execution.
//   * Epoch pinning: a stream query that pinned epoch E observes E's links
//     even if the learner publishes E+1..E+k mid-flight.
//   * Every recorded stream answer set is bitwise-identical to a sequential
//     replay against the same epoch's retained snapshot (the identity gate:
//     hashes of the full row sets compare equal).
#ifndef ALEX_SERVING_SERVING_LOOP_H_
#define ALEX_SERVING_SERVING_LOOP_H_

#include <cstdint>
#include <vector>

#include "core/alex_engine.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "eval/query_workload.h"
#include "feedback/aggregator.h"
#include "feedback/oracle.h"
#include "serving/serving_engine.h"

namespace alex::serving {

// Episode size and cap come from the engine's AlexOptions (episode_size,
// max_episodes), as in the plain query-driven loop.
struct ServingLoopOptions {
  eval::WorkloadOptions workload;
  double feedback_error_rate = 0.0;
  uint64_t oracle_seed = 99;
  // Concurrent reader streams executing the workload against the serving
  // engine while the learner runs. 0 = learner only (no reader threads).
  size_t num_streams = 0;
  // Stop recording per-stream results after this many per stream (bounds
  // replay memory); streams keep serving unrecorded after the cap.
  size_t max_stream_records = 4096;
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
  double vote_error_rate = 0.1;
  uint64_t vote_seed = 777;
  feedback::AggregatorOptions aggregator;
};

struct ServingRunResult {
  // The learner series, in the same shape as the plain query-driven run.
  eval::ExperimentResult experiment;
  ServingEngine::Stats serving;
  // Reader-stream traffic.
  size_t stream_queries = 0;
  uint64_t stream_rows = 0;
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
  // Serving-side latency (stream ExecuteText calls), milliseconds.
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  double latency_mean_ms = 0.0;

  bool identity_ok() const { return identity_verified == identity_replayed; }
};

// Deterministic 64-bit digest of a federated answer set, order-sensitive:
// equal iff the rows (variable bindings, in result order) are identical.
uint64_t HashAnswers(const std::vector<fed::FederatedAnswer>& answers);

// Runs the serving experiment. `engine` must be initialized; installs its
// own link-change observer for the duration (replacing any existing one).
ServingRunResult RunServingExperiment(core::AlexEngine* engine,
                                      const datagen::GeneratedWorld& world,
                                      const feedback::GroundTruth& truth,
                                      const ServingLoopOptions& options);

}  // namespace alex::serving

#endif  // ALEX_SERVING_SERVING_LOOP_H_
