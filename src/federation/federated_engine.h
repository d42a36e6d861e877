// Federated query processing over multiple RDF sources with owl:sameAs
// bridging (the role FedX plays in the paper, §3.2).
//
// A federated query is written as if all data were in one place. The engine
// decomposes it per triple pattern, selects capable sources, and evaluates a
// backtracking join across sources. When a variable bound to an entity of
// one source must match an entity of another source, the engine consults a
// published LinkView: IRIs x and y unify iff x == y or (x, y) / (y, x) is a
// link.
//
// Every answer carries *provenance*: the set of links that were used to
// produce it. This is what user feedback attaches to — approving an answer
// approves its links, rejecting it rejects them (paper §3.2, §4).
//
// Sources are fed::Endpoints. Real endpoints fail, so Execute returns a
// FederatedResult: the answers plus completeness metadata. When an endpoint
// probe ultimately fails (after per-source retry with exponential backoff),
// is short-circuited by an open circuit breaker, or returns a truncated
// result, evaluation continues without it and the result is marked
// incomplete with the failed sources listed — degraded sources yield
// annotated partial answers instead of aborting the query. Incomplete
// results are never stored into the attached FederatedQueryCache, and the
// query-driven episode (eval::JudgeQueryAnswers) never derives feedback
// from them.
//
// Evaluation is one sequential backtracking join: every query, reliable or
// resilient, enumerates its answers in the same order (per UNION
// alternative, the most selective remaining pattern first; per pattern,
// each selected source in ascending index, each way to bind its subject,
// predicate and object — the bound term, then its sameAs counterparts —
// and the probe's triples in order).
//
// All failure handling runs in virtual time (common/clock.h): retry backoff
// and breaker cooldowns cost simulated microseconds, never wall sleeps, and
// with deterministic endpoints (fault_injection.h) the entire failure
// timeline replays bit for bit.
#ifndef ALEX_FEDERATION_FEDERATED_ENGINE_H_
#define ALEX_FEDERATION_FEDERATED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "federation/endpoint.h"
#include "federation/fault_injection.h"
#include "federation/health.h"
#include "federation/link_set.h"
#include "federation/retry_policy.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"

namespace alex::sparql {
class PlanCache;
}  // namespace alex::sparql

namespace alex::fed {

class FederatedQueryCache;

struct FederatedAnswer {
  sparql::Binding binding;
  // Links used to bridge sources while producing this answer. Empty when the
  // answer came from a single source.
  std::vector<linking::Link> links_used;
};

struct FederatedOptions {
  size_t max_rows = 100000;
  // Salts deterministic fault decisions when running a pre-parsed query
  // through Execute(). ExecuteText derives the salt from the query
  // fingerprint instead, so each distinct query text sees independent
  // faults while re-executions of the same text replay the same ones
  // (which keeps cached and uncached runs identical).
  uint64_t fault_salt = 0;
};

// Answers plus completeness metadata. `complete` means the answer set is
// exactly what a fully reliable federation would have produced; any
// degradation — a failed or breaker-blocked source, a truncated endpoint
// result, the max_rows cap — clears it.
struct FederatedResult {
  std::vector<FederatedAnswer> answers;
  bool complete = true;
  bool from_cache = false;
  // The engine's max_rows cap cut the enumeration short (never set for ASK,
  // whose first answer is semantic completion).
  bool row_capped = false;
  // Some endpoint returned a truncated probe result.
  bool truncated = false;
  // Endpoints that could not fully contribute: ultimately-failed probes,
  // open-breaker short circuits, or truncated results. Ascending, unique.
  std::vector<size_t> failed_sources;
  // Probe attempts issued (retries included), retries among them, and
  // probes skipped by an open breaker.
  size_t probes = 0;
  size_t retries = 0;
  size_t short_circuits = 0;
  // Simulated endpoint time this execution cost (latencies + backoffs).
  int64_t virtual_micros = 0;
};

// Retry and breaker configuration for unreliable endpoints.
struct Resilience {
  RetryPolicy retry;
  BreakerOptions breaker;
};

// Failure accounting since the last Federation::TakeFaultStats().
struct FaultStats {
  size_t queries = 0;             // executions on the resilient path
  size_t degraded = 0;            // of which returned incomplete
  size_t breaker_opens = 0;       // closed/half-open -> open
  size_t breaker_half_opens = 0;  // open -> half-open
  size_t breaker_closes = 0;      // half-open -> closed
};

// The endpoints federated engines query, and the failure state of their
// resilient path: per-endpoint circuit breakers, the virtual clock and the
// fault counters. Endpoint health belongs to the endpoint, not to a link
// view, so engines over successive link views (the serving tier builds one
// per published epoch) share one Federation through shared_ptr: breaker
// transitions, virtual time and fault accounting carry across them, and the
// Federation lives as long as the last engine over it. Resilient queries
// must be issued one at a time across all of those engines: a query that
// starts while another is in flight fails an ALEX_CHECK.
class Federation {
 public:
  // Wraps each store in a LocalEndpoint and, under a non-zero `faults`
  // profile, in a FaultInjectingEndpoint. The stores must outlive it.
  explicit Federation(std::span<const rdf::TripleStore* const> stores,
                      const FaultProfile& faults = {});
  // Federates over caller-owned endpoints, which must outlive it. When any
  // endpoint is unreliable, engines run their resilient path: per-source
  // retry with backoff, circuit breaking, and completeness tracking, all in
  // virtual time.
  explicit Federation(std::span<Endpoint* const> endpoints);

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // Whether engines run the resilient path (any unreliable endpoint).
  bool resilient() const { return resilient_; }

  // Replaces the retry/breaker configuration. Call before the first
  // query: breaker state is reset.
  void set_resilience(const Resilience& resilience);
  // Per-endpoint breaker state and counters (resilient path only).
  const HealthTracker& health() const { return health_; }
  // The virtual clock: total simulated endpoint time consumed.
  int64_t virtual_now_micros() const { return clock_.NowMicros(); }
  // Returns and resets the failure counters (per-episode accounting, like
  // FederatedQueryCache::TakeStats).
  FaultStats TakeFaultStats();

 private:
  friend class FederatedEngine;  // runs the resilient path on this state

  std::vector<std::unique_ptr<Endpoint>> owned_endpoints_;
  std::vector<Endpoint*> endpoints_;
  std::vector<const rdf::TripleStore*> sources_;  // endpoints_[i]->store()
  bool resilient_ = false;
  Resilience resilience_;
  HealthTracker health_;
  VirtualClock clock_;
  FaultStats fault_stats_;
  // Set while a resilient query runs (the overlap check above).
  std::atomic<bool> resilient_busy_{false};
};

// Thread-safety: on the reliable path (all endpoints reliable) Execute and
// ExecuteText are const and touch no engine state beyond the attached
// caches, which are themselves thread-safe — concurrent executions from many
// query streams are supported, which is what the serving tier relies on.
// The resilient path mutates the Federation's breaker state and virtual
// clock; resilient queries must be issued sequentially (that is what makes
// breaker transitions deterministic), and an overlapping one fails a check.
class FederatedEngine {
 public:
  // Wraps each store in a LocalEndpoint: the seed engine, bit-for-bit.
  // `sources` and `links` must outlive the engine.
  FederatedEngine(std::vector<const rdf::TripleStore*> sources,
                  const LinkView* links);

  // Federates over caller-owned endpoints (see Federation).
  FederatedEngine(std::span<Endpoint* const> endpoints,
                  const LinkView* links);

  // Federates over `federation`, sharing its endpoints and failure state
  // with every other engine over it. `links` must outlive the engine.
  FederatedEngine(std::shared_ptr<Federation> federation,
                  const LinkView* links);

  // Parses and runs a federated SELECT query.
  Result<FederatedResult> ExecuteText(
      const std::string& query_text,
      const FederatedOptions& options = {}) const;

  // Runs an already-parsed query.
  Result<FederatedResult> Execute(const sparql::Query& query,
                                  const FederatedOptions& options = {}) const;

  // The endpoints and their failure state.
  Federation& federation() const { return *federation_; }

  // Attaches a result cache consulted by ExecuteText(). The cache must hold
  // only results computed over `links`: moving to another link view goes
  // through FederatedQueryCache's carry-forward constructor, which drops
  // exactly the entries the change invalidates. Sources must stay
  // immutable while the cache is attached. Only complete results are
  // admitted: a degraded or row-capped answer set is returned to the caller
  // but never cached, so a transient endpoint failure can never poison
  // later executions. nullptr detaches.
  void set_cache(FederatedQueryCache* cache) { cache_ = cache; }

  // Attaches a parse cache consulted by ExecuteText(): repeated query
  // texts (the episode loop re-issues the same workload every epoch) are
  // parsed once instead of per call. Parsing is deterministic, so cached
  // and uncached runs stay bitwise identical. nullptr detaches.
  void set_plan_cache(sparql::PlanCache* plan_cache) {
    plan_cache_ = plan_cache;
  }

 private:
  // Shared implementation. When `consulted` is non-null it collects every
  // IRI whose link neighborhood was consulted — the exact dependency
  // footprint of the answer set on the link set. `fault_salt` feeds the
  // endpoints' deterministic fault decisions.
  Result<FederatedResult> ExecuteInternal(
      const sparql::Query& query, const FederatedOptions& options,
      uint64_t fault_salt,
      std::unordered_set<std::string>* consulted) const;

  std::shared_ptr<Federation> federation_;
  const LinkView* links_;
  FederatedQueryCache* cache_ = nullptr;
  sparql::PlanCache* plan_cache_ = nullptr;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_FEDERATED_ENGINE_H_
