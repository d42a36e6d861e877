// Query-driven feedback (the paper's actual §3.2 loop).
//
// The evaluation in §7 draws random candidate links and asks the oracle
// about them directly. In the deployed system, however, feedback arrives on
// the answers of *federated queries*: a user asks something that needs both
// data sets, the engine bridges them through candidate owl:sameAs links,
// and approving/rejecting an answer approves/rejects the links in its
// provenance. This module closes that loop end to end:
//
//   * GenerateWorkload builds federated SELECT queries over a generated
//     world, each shaped like the paper's §1 example: constrain an entity
//     by a left-side attribute value, ask for a right-side attribute —
//     answerable only across a link.
//   * RunQueryDrivenExperiment alternates episodes in which the queries are
//     executed against the current candidate links, every answer is judged
//     by the ground truth, and the feedback flows into the ALEX engine via
//     ApplyLinkFeedback (JudgeQueryAnswers, which the serving loop in
//     serving/serving_loop.h shares).
//
// Query-driven feedback differs from uniform link sampling in coverage:
// only links that actually answer queries receive feedback. The
// `bench_query_driven` benchmark contrasts the two.
#ifndef ALEX_EVAL_QUERY_WORKLOAD_H_
#define ALEX_EVAL_QUERY_WORKLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/alex_engine.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "federation/fault_injection.h"
#include "federation/federated_engine.h"
#include "federation/query_cache.h"
#include "feedback/oracle.h"
#include "sparql/plan_cache.h"

namespace alex::eval {

struct WorkloadOptions {
  // Number of distinct queries to generate.
  size_t num_queries = 300;
  uint64_t seed = 4242;
};

// One generated federated query (kept as text so tools can print/replay it).
struct WorkloadQuery {
  std::string text;
  // The left entity the query constrains (for diagnostics).
  std::string about_left_entity;
};

// Builds the workload from the world's left-side attribute values. Queries
// constrain a left predicate to an exact value and project a right-side
// predicate of the same (linked) entity.
std::vector<WorkloadQuery> GenerateWorkload(
    const datagen::GeneratedWorld& world, const WorkloadOptions& options);

// Executes one federated query against the driver's current links.
using QueryExecutor =
    std::function<Result<fed::FederatedResult>(const std::string& text)>;

// The feedback of one query-driven episode (§3.2), between the caller's
// BeginExternalEpisode and EndExternalEpisode: the workload runs in a fresh
// `rng` shuffle through `execute` until AlexOptions::episode_size links
// were judged or every query ran once. The oracle judges each provenance
// link of a complete answer set at most once per episode (the engine's
// first-visit semantics). Fills the query, probe and skipped-feedback
// counters of `stats`.
void JudgeQueryAnswers(core::AlexEngine* engine,
                       const std::vector<WorkloadQuery>& workload,
                       const QueryExecutor& execute,
                       feedback::Oracle* oracle, Rng* rng,
                       core::EpisodeStats* stats);

// Moves the traffic counters of the caches since the last call into
// `stats`; either cache may be null (not attached).
void TakeCacheStats(fed::FederatedQueryCache* cache,
                    sparql::PlanCache* plan_cache, core::EpisodeStats* stats);

// Episode size and cap come from the engine's AlexOptions (episode_size,
// max_episodes).
struct QueryDrivenOptions {
  WorkloadOptions workload;
  double feedback_error_rate = 0.0;
  uint64_t oracle_seed = 99;
  // Reuse federated query results across episodes through a
  // FederatedQueryCache invalidated exactly from the engine's epoch deltas.
  // The series is bitwise-identical with the cache on or off; the cache
  // only removes redundant re-execution.
  bool use_query_cache = true;
  // Reuse parsed queries across episodes through a sparql::PlanCache
  // attached to the federated engine. Parsing is deterministic, so the
  // series is bitwise-identical with this cache on or off too; per-episode
  // traffic lands in EpisodeStats::plan_cache_{hits,misses}.
  bool use_plan_cache = true;
  // Optional pool for per-source parallel federated evaluation (results
  // stay deterministic; see FederatedOptions::pool).
  ThreadPool* pool = nullptr;
  // Endpoint fault model. A zero profile (default) federates directly over
  // the stores — the seed behavior, bit-for-bit. A non-zero profile wraps
  // every source in a FaultInjectingEndpoint and runs the engine's
  // resilient path: queries whose answers come back incomplete produce NO
  // feedback (their provenance links are counted in
  // EpisodeStats::skipped_feedback instead), so the policy never trains on
  // degraded evidence. With a fixed profile seed the whole series is
  // bitwise-identical at any thread count.
  fed::FaultProfile fault_profile;
  // Retry/backoff and circuit-breaker configuration for the resilient path.
  fed::FederatedEngine::Resilience resilience;
  // Per-query virtual-time budget (see FederatedOptions::deadline_micros).
  int64_t deadline_micros = 0;
};

// Runs the full pipeline with query-driven feedback. The engine must
// already be initialized; `truth` judges answers. Returns the same series
// structure as RunExperimentOnWorld (episode 0 = initial quality).
// Installs its own link-change observer on the engine for the duration of
// the run (replacing any existing one; cleared before returning) to keep
// the federated link set and query cache synchronized with the candidate
// set incrementally.
ExperimentResult RunQueryDrivenExperiment(
    core::AlexEngine* engine, const datagen::GeneratedWorld& world,
    const feedback::GroundTruth& truth, const QueryDrivenOptions& options);

}  // namespace alex::eval

#endif  // ALEX_EVAL_QUERY_WORKLOAD_H_
