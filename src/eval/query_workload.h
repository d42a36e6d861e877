// Query-driven feedback (the paper's actual §3.2 loop).
//
// The evaluation in §7 draws random candidate links and asks the oracle
// about them directly. In the deployed system, however, feedback arrives on
// the answers of *federated queries*: a user asks something that needs both
// data sets, the engine bridges them through candidate owl:sameAs links,
// and approving/rejecting an answer approves/rejects the links in its
// provenance. This module holds the loop's parts:
//
//   * GenerateWorkload builds federated SELECT queries over a generated
//     world, each shaped like the paper's §1 example: constrain an entity
//     by a left-side attribute value, ask for a right-side attribute —
//     answerable only across a link.
//   * JudgeQueryAnswers runs one episode's queries, has the ground truth
//     judge every answer, and feeds the verdicts to the ALEX engine via
//     ApplyLinkFeedback.
//
// serving::RunServingExperiment (serving/serving_loop.h) runs the loop:
// the learner's link changes reach the queries only through the serving
// tier's published epochs.
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
#include "core/alex_engine.h"
#include "datagen/world.h"
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
// `stats`: the result cache's hits and misses, and the parse cache's
// (sparql::PlanCache parses; it compiles no plans) as plan_cache_hits and
// plan_cache_misses. Either cache may be null (not attached).
void TakeCacheStats(fed::FederatedQueryCache* cache,
                    sparql::PlanCache* plan_cache, core::EpisodeStats* stats);

}  // namespace alex::eval

#endif  // ALEX_EVAL_QUERY_WORKLOAD_H_
