#include "federation/federated_engine.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "federation/query_cache.h"
#include "federation/source_selection.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/plan_cache.h"

namespace alex::fed {
namespace {

using rdf::TermId;
using rdf::Triple;
using rdf::TripleStore;
using sparql::Binding;
using sparql::PatternNode;
using sparql::Query;
using sparql::TriplePattern;

uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t PatternKey(rdf::TermPattern t) {
  // Disambiguate "unbound" from term id 0.
  return t.has_value() ? static_cast<uint64_t>(*t) + 1 : 0;
}

// One query's fault accounting: what its probes cost and which endpoints
// failed, truncated or were short-circuited.
struct ProbeLog {
  explicit ProbeLog(size_t num_endpoints)
      : probed(num_endpoints, 0),
        failed(num_endpoints, 0),
        degraded(num_endpoints, 0),
        denied(num_endpoints, 0) {}

  size_t probes = 0;          // probe attempts issued (retries included)
  size_t retries = 0;
  size_t short_circuits = 0;  // probes skipped by an open breaker
  int64_t micros = 0;         // latencies + retry backoffs
  bool truncated = false;     // some probe result was cut short
  bool row_capped = false;    // the max_rows cap stopped enumeration
  std::vector<uint8_t> probed;    // endpoint was actually probed
  std::vector<uint8_t> failed;    // some probe of it ultimately failed
  std::vector<uint8_t> degraded;  // it answered, but truncated
  std::vector<uint8_t> denied;    // open breaker short-circuited it
};

// Marks a resilient query in flight on its Federation for its scope, and
// fails a check when another one already is: the resilient path mutates the
// shared breaker state, clock and counters without a lock. Inert (nullptr)
// on the reliable path.
class ResilientQueryScope {
 public:
  explicit ResilientQueryScope(std::atomic<bool>* busy) : busy_(busy) {
    ALEX_CHECK(busy_ == nullptr ||
               !busy_->exchange(true, std::memory_order_acquire))
        << "resilient federated queries must run one at a time";
  }
  ~ResilientQueryScope() {
    if (busy_ != nullptr) busy_->store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool>* busy_;
};

// Issues one query's pattern probes. On the reliable path it
// is a plain passthrough (the seed engine, bit-for-bit); on the resilient
// path it short-circuits breaker-open endpoints and retries retryable
// failures with deterministic exponential backoff, charging all virtual
// time to its ProbeLog. Returns true when the probe produced a result;
// false means the endpoint contributes no matches (partial-result
// semantics: evaluation continues without it).
class ProbeDriver {
 public:
  ProbeDriver(const std::vector<Endpoint*>& endpoints, bool resilient,
              const RetryPolicy& retry, const std::vector<uint8_t>& allowed,
              uint64_t query_salt, ProbeLog* log)
      : endpoints_(endpoints),
        resilient_(resilient),
        retry_(retry),
        allowed_(allowed),
        query_salt_(query_salt),
        log_(log) {}

  bool Probe(size_t source, rdf::TermPattern s, rdf::TermPattern p,
             rdf::TermPattern o, ProbeResult* out) {
    if (!resilient_) {
      return endpoints_[source]->Probe(s, p, o, query_salt_, 0, out).ok();
    }
    if (!allowed_[source]) {
      ++log_->short_circuits;
      log_->denied[source] = 1;
      return false;
    }
    const uint64_t jitter_key = MixKey(
        query_salt_ ^
        MixKey(static_cast<uint64_t>(source) ^
               MixKey(PatternKey(s) ^
                      MixKey(PatternKey(p) ^ MixKey(PatternKey(o))))));
    for (int attempt = 0;; ++attempt) {
      ++log_->probes;
      log_->probed[source] = 1;
      ProbeResult result;
      Status st = endpoints_[source]->Probe(s, p, o, query_salt_, attempt,
                                            &result);
      log_->micros += result.latency_micros;
      if (st.ok()) {
        if (result.truncated) {
          log_->truncated = true;
          log_->degraded[source] = 1;
        }
        *out = std::move(result);
        return true;
      }
      if (attempt + 1 >= retry_.max_attempts || !IsRetryable(st.code())) {
        log_->failed[source] = 1;
        return false;
      }
      ++log_->retries;
      log_->micros += BackoffMicros(retry_, attempt + 1, jitter_key);
    }
  }

  ProbeLog* log() { return log_; }

 private:
  const std::vector<Endpoint*>& endpoints_;
  bool resilient_;
  const RetryPolicy& retry_;
  const std::vector<uint8_t>& allowed_;
  uint64_t query_salt_;
  ProbeLog* log_;
};

// A way to satisfy one pattern position in one source: the id to search for
// (nullopt = leave unbound) plus the link consumed if the id is a sameAs
// counterpart of the originally bound value.
struct PositionChoice {
  std::optional<TermId> id;
  std::optional<linking::Link> link;
};

class FederatedEvaluator {
 public:
  // `consulted` (optional) collects every IRI whose link neighborhood is
  // consulted. All store reads go through `driver`, which models the
  // (possibly fallible) endpoint round trips.
  FederatedEvaluator(const Query& query,
                     const std::vector<TriplePattern>& patterns,
                     const std::vector<const TripleStore*>& sources,
                     const LinkView& links, const FederatedOptions& options,
                     ProbeDriver* driver,
                     std::unordered_set<std::string>* consulted)
      : query_(query),
        patterns_(patterns),
        sources_(sources),
        links_(links),
        options_(options),
        driver_(driver),
        consulted_(consulted) {
    selected_ = SelectSourcesFor(patterns, sources);
  }

  // When false, answers carry the full binding instead of the projected
  // one (used while OPTIONAL groups still have to be joined).
  void set_project(bool project) { project_ = project; }

  // Evaluates the patterns starting from `seed_binding` (empty for a
  // top-level run). `seed_provenance` is prepended to every answer's
  // provenance. Sets *matched when at least one solution was emitted.
  Status Run(std::vector<FederatedAnswer>* out,
             const Binding& seed_binding = {},
             const std::vector<linking::Link>& seed_provenance = {},
             bool* matched = nullptr) {
    out_ = out;
    std::vector<size_t> remaining(patterns_.size());
    for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
    Binding binding = seed_binding;
    std::vector<linking::Link> provenance = seed_provenance;
    emitted_ = false;
    Status st = Recurse(remaining, &binding, &provenance);
    if (matched != nullptr) *matched = emitted_;
    return st;
  }

 private:
  // Enumerates the ways to satisfy `node` against `source`: bound values may
  // be rewritten to their sameAs counterparts, each choice recording the
  // link it uses.
  std::vector<PositionChoice> ChoicesFor(const PatternNode& node,
                                         const Binding& binding,
                                         const TripleStore& source,
                                         bool allow_bridge) const {
    std::vector<PositionChoice> choices;
    const rdf::Term* term = nullptr;
    if (node.is_variable) {
      auto it = binding.find(node.variable);
      if (it == binding.end()) {
        choices.push_back(PositionChoice{std::nullopt, std::nullopt});
        return choices;
      }
      term = &it->second;
    } else {
      term = &node.term;
    }
    if (std::optional<TermId> id = source.dictionary().Lookup(*term)) {
      choices.push_back(PositionChoice{*id, std::nullopt});
    }
    if (allow_bridge && term->is_iri()) {
      const std::string& iri = term->lexical();
      // The answer set depends on the link set exactly through these
      // neighborhood reads — record them (hits and misses alike) so cached
      // results can be invalidated precisely.
      if (consulted_ != nullptr) consulted_->insert(iri);
      for (const std::string& right : links_.RightsOf(iri)) {
        AddCounterpart(iri, right, /*left_is_original=*/true, source,
                       &choices);
      }
      for (const std::string& left : links_.LeftsOf(iri)) {
        AddCounterpart(left, iri, /*left_is_original=*/false, source,
                       &choices);
      }
    }
    return choices;
  }

  void AddCounterpart(const std::string& left, const std::string& right,
                      bool left_is_original, const TripleStore& source,
                      std::vector<PositionChoice>* choices) const {
    const std::string& counterpart = left_is_original ? right : left;
    std::optional<TermId> id =
        source.dictionary().Lookup(rdf::Term::Iri(counterpart));
    if (!id) return;
    linking::Link link;
    link.left = left;
    link.right = right;
    choices->push_back(PositionChoice{*id, link});
  }

  Status Recurse(std::vector<size_t> remaining, Binding* binding,
                 std::vector<linking::Link>* provenance) {
    if (done_) return Status::Ok();
    if (remaining.empty()) {
      // A filter counts once its variables are bound: one over a variable
      // only a later OPTIONAL group binds is checked when that group ends
      // (and passes when the group does not match).
      for (const auto& filter : query_.filters) {
        if (sparql::FilterReady(*filter, *binding) &&
            !sparql::EvalFilter(*filter, *binding)) {
          return Status::Ok();
        }
      }
      FederatedAnswer answer;
      answer.binding = project_ ? sparql::Project(query_, *binding)
                                : *binding;
      answer.links_used = *provenance;
      std::sort(answer.links_used.begin(), answer.links_used.end());
      answer.links_used.erase(
          std::unique(answer.links_used.begin(), answer.links_used.end()),
          answer.links_used.end());
      out_->push_back(std::move(answer));
      emitted_ = true;
      if (out_->size() >= options_.max_rows) {
        done_ = true;
        // ASK completes on its first answer; everything else was cut off.
        if (!query_.is_ask) driver_->log()->row_capped = true;
      }
      if (query_.is_ask) done_ = true;
      return Status::Ok();
    }
    // Most selective remaining pattern first.
    size_t best_pos = 0;
    int best_unbound = 4;
    for (size_t i = 0; i < remaining.size(); ++i) {
      int unbound = patterns_[remaining[i]].UnboundCount(*binding);
      if (unbound < best_unbound) {
        best_unbound = unbound;
        best_pos = i;
      }
    }
    size_t pattern_idx = remaining[best_pos];
    remaining.erase(remaining.begin() + best_pos);
    const TriplePattern& pattern = patterns_[pattern_idx];

    for (size_t source_idx : selected_[pattern_idx]) {
      const TripleStore& source = *sources_[source_idx];
      // Subjects and objects may be bridged across sources; predicates are
      // vocabulary, never bridged.
      std::vector<PositionChoice> s_choices =
          ChoicesFor(pattern.subject, *binding, source, true);
      std::vector<PositionChoice> p_choices =
          ChoicesFor(pattern.predicate, *binding, source, false);
      std::vector<PositionChoice> o_choices =
          ChoicesFor(pattern.object, *binding, source, true);
      for (const PositionChoice& sc : s_choices) {
        for (const PositionChoice& pc : p_choices) {
          for (const PositionChoice& oc : o_choices) {
            Status st = MatchOne(pattern, source_idx, sc, pc, oc, remaining,
                                 binding, provenance);
            if (!st.ok()) return st;
            if (done_) return Status::Ok();
          }
        }
      }
    }
    return Status::Ok();
  }

  Status MatchOne(const TriplePattern& pattern, size_t source_idx,
                  const PositionChoice& sc, const PositionChoice& pc,
                  const PositionChoice& oc, std::vector<size_t>& remaining,
                  Binding* binding, std::vector<linking::Link>* provenance) {
    size_t links_pushed = 0;
    for (const PositionChoice* choice : {&sc, &pc, &oc}) {
      if (choice->link) {
        provenance->push_back(*choice->link);
        ++links_pushed;
      }
    }
    const rdf::Dictionary& dict = sources_[source_idx]->dictionary();
    // A failed probe contributes no matches; the join continues without
    // this endpoint and the degradation is recorded in the driver's log.
    ProbeResult probe;
    if (driver_->Probe(source_idx, sc.id, pc.id, oc.id, &probe)) {
      for (const Triple& t : probe.triples) {
        if (done_) break;
        std::vector<std::string> added;
        bool consistent = true;
        auto bind_new = [&](const PatternNode& node, TermId id,
                            const PositionChoice& choice) {
          // Only bind variables that were previously unbound; bound
          // variables were already baked into the search ids. A variable
          // repeated inside the pattern matches only when every occurrence
          // holds the same term.
          if (!node.is_variable || choice.id.has_value()) return;
          auto [it, inserted] = binding->emplace(node.variable, dict.term(id));
          if (inserted) {
            added.push_back(node.variable);
          } else if (it->second != dict.term(id)) {
            consistent = false;
          }
        };
        bind_new(pattern.subject, t.subject, sc);
        bind_new(pattern.predicate, t.predicate, pc);
        bind_new(pattern.object, t.object, oc);
        Status st = consistent ? Recurse(remaining, binding, provenance)
                               : Status::Ok();
        for (const std::string& var : added) binding->erase(var);
        if (!st.ok()) return st;
      }
    }
    for (size_t i = 0; i < links_pushed; ++i) provenance->pop_back();
    return Status::Ok();
  }

  const Query& query_;
  const std::vector<TriplePattern>& patterns_;
  const std::vector<const TripleStore*>& sources_;
  const LinkView& links_;
  const FederatedOptions& options_;
  ProbeDriver* driver_;
  std::unordered_set<std::string>* consulted_ = nullptr;
  std::vector<std::vector<size_t>> selected_;
  std::vector<FederatedAnswer>* out_ = nullptr;
  bool done_ = false;
  bool emitted_ = false;
  bool project_ = true;
};

}  // namespace

Federation::Federation(std::span<const rdf::TripleStore* const> stores,
                       const FaultProfile& faults)
    : resilient_(!faults.IsZero()),
      health_(stores.size(), resilience_.breaker) {
  for (size_t i = 0; i < stores.size(); ++i) {
    owned_endpoints_.push_back(std::make_unique<LocalEndpoint>(stores[i]));
    if (resilient_) {
      owned_endpoints_.push_back(std::make_unique<FaultInjectingEndpoint>(
          owned_endpoints_.back().get(), i, faults));
    }
    endpoints_.push_back(owned_endpoints_.back().get());
    sources_.push_back(stores[i]);
  }
}

Federation::Federation(std::span<Endpoint* const> endpoints)
    : endpoints_(endpoints.begin(), endpoints.end()),
      health_(endpoints.size(), resilience_.breaker) {
  for (const Endpoint* endpoint : endpoints_) {
    sources_.push_back(&endpoint->store());
    if (!endpoint->reliable()) resilient_ = true;
  }
}

void Federation::set_resilience(const Resilience& resilience) {
  resilience_ = resilience;
  health_ = HealthTracker(endpoints_.size(), resilience_.breaker);
}

FaultStats Federation::TakeFaultStats() {
  return std::exchange(fault_stats_, FaultStats{});
}

FederatedEngine::FederatedEngine(std::vector<const rdf::TripleStore*> sources,
                                 const LinkView* links)
    : FederatedEngine(std::make_shared<Federation>(sources), links) {}

FederatedEngine::FederatedEngine(std::span<Endpoint* const> endpoints,
                                 const LinkView* links)
    : FederatedEngine(std::make_shared<Federation>(endpoints), links) {}

FederatedEngine::FederatedEngine(std::shared_ptr<Federation> federation,
                                 const LinkView* links)
    : federation_(std::move(federation)), links_(links) {}

Result<FederatedResult> FederatedEngine::ExecuteText(
    const std::string& query_text, const FederatedOptions& options) const {
  // The fingerprint doubles as the query's fault salt, so re-executions of
  // the same text (cache off, or cache miss after invalidation) replay the
  // exact same fault universe — cached and uncached series stay identical.
  const uint64_t fingerprint = QueryFingerprint(query_text, options.max_rows);
  // Parse through the attached plan cache when one is present: the episode
  // loop replays the same texts every epoch, and parsing is deterministic,
  // so reuse cannot change any answer.
  auto parse = [&](Result<Query>* local) -> Result<const Query*> {
    if (plan_cache_ != nullptr) return plan_cache_->GetParsed(query_text);
    *local = sparql::ParseQuery(query_text);
    if (!local->ok()) return local->status();
    return static_cast<const Query*>(&local->value());
  };
  if (cache_ != nullptr) {
    if (auto hit = cache_->Lookup(fingerprint)) {
      FederatedResult result;
      result.answers = *hit;
      result.from_cache = true;
      return result;
    }
    Result<Query> local = Query();
    Result<const Query*> query = parse(&local);
    if (!query.ok()) return query.status();
    std::unordered_set<std::string> consulted;
    Result<FederatedResult> result =
        ExecuteInternal(*query.value(), options, fingerprint, &consulted);
    // Only complete results are admitted: a degraded or row-capped answer
    // set must never shadow the full one once the endpoint recovers.
    if (result.ok() && result.value().complete) {
      cache_->Insert(fingerprint, result.value().answers, consulted);
    }
    return result;
  }
  Result<Query> local = Query();
  Result<const Query*> query = parse(&local);
  if (!query.ok()) return query.status();
  return ExecuteInternal(*query.value(), options, fingerprint, nullptr);
}

Result<FederatedResult> FederatedEngine::Execute(
    const Query& query, const FederatedOptions& options) const {
  return ExecuteInternal(query, options, options.fault_salt, nullptr);
}

Result<FederatedResult> FederatedEngine::ExecuteInternal(
    const Query& query, const FederatedOptions& options, uint64_t fault_salt,
    std::unordered_set<std::string>* consulted) const {
  if (!query.aggregates.empty()) {
    return Status::Unimplemented(
        "aggregates are not supported in federated queries");
  }
  Federation& federation = *federation_;
  const std::vector<Endpoint*>& endpoints = federation.endpoints_;
  const std::vector<const rdf::TripleStore*>& sources = federation.sources_;
  const bool resilient = federation.resilient_;
  ResilientQueryScope scope(resilient ? &federation.resilient_busy_
                                      : nullptr);
  const size_t num_endpoints = endpoints.size();
  ProbeLog log(num_endpoints);
  // Breaker snapshot for the whole query: every probe sees the same
  // allow/deny decision, and transitions happen only between queries.
  // Counters are snapshotted first because AllowProbe itself may perform
  // the open -> half-open transition.
  EndpointHealth::Counters counters_before;
  std::vector<uint8_t> allowed(num_endpoints, 1);
  if (resilient) {
    counters_before = federation.health_.Totals();
    const int64_t now = federation.clock_.NowMicros();
    for (size_t i = 0; i < num_endpoints; ++i) {
      allowed[i] = federation.health_.endpoint(i).AllowProbe(now) ? 1 : 0;
    }
  }
  const RetryPolicy& retry = federation.resilience_.retry;
  ProbeDriver driver(endpoints, resilient, retry, allowed, fault_salt, &log);

  std::vector<FederatedAnswer> answers;
  const bool has_optionals = !query.optionals.empty();
  for (const std::vector<TriplePattern>* patterns : query.Alternatives()) {
    // The alternatives share `answers`, so max_rows caps their total; an
    // alternative that starts at the cap still adds the one row after which
    // the evaluator notices it.
    FederatedEvaluator evaluator(query, *patterns, sources, *links_, options,
                                 &driver, consulted);
    evaluator.set_project(!has_optionals);
    Status st = evaluator.Run(&answers);
    if (!st.ok()) return st;
    if (query.is_ask && !answers.empty()) break;
  }
  // OPTIONAL groups: left-outer-join each group against the answers so
  // far, bridging across sources exactly like required patterns.
  if (has_optionals) {
    for (const std::vector<TriplePattern>& group : query.optionals) {
      std::vector<FederatedAnswer> extended;
      for (const FederatedAnswer& answer : answers) {
        FederatedEvaluator evaluator(query, group, sources, *links_,
                                     options, &driver, consulted);
        evaluator.set_project(false);
        bool matched = false;
        Status st = evaluator.Run(&extended, answer.binding,
                                  answer.links_used, &matched);
        if (!st.ok()) return st;
        if (!matched) extended.push_back(answer);
      }
      answers = std::move(extended);
    }
    for (FederatedAnswer& answer : answers) {
      answer.binding = sparql::Project(query, answer.binding);
    }
  }
  if (query.distinct) {
    std::set<std::pair<Binding, std::vector<linking::Link>>> seen;
    std::vector<FederatedAnswer> unique;
    for (FederatedAnswer& a : answers) {
      if (seen.insert({a.binding, a.links_used}).second) {
        unique.push_back(std::move(a));
      }
    }
    answers = std::move(unique);
  }
  if (!query.order_by.empty()) {
    std::stable_sort(answers.begin(), answers.end(),
                     [&query](const FederatedAnswer& a,
                              const FederatedAnswer& b) {
                       return sparql::CompareBindingsForOrder(
                                  a.binding, b.binding, query.order_by) < 0;
                     });
  }
  if (query.offset > 0) {
    answers.erase(answers.begin(),
                  answers.begin() +
                      std::min(query.offset, answers.size()));
  }
  if (query.limit && answers.size() > *query.limit) {
    answers.resize(*query.limit);
  }

  FederatedResult result;
  result.answers = std::move(answers);
  result.row_capped = log.row_capped && !query.is_ask;
  result.truncated = log.truncated;
  if (resilient) {
    result.probes = log.probes;
    result.retries = log.retries;
    result.short_circuits = log.short_circuits;
    result.virtual_micros = log.micros;
    for (size_t i = 0; i < num_endpoints; ++i) {
      if (log.failed[i] || log.denied[i] || log.degraded[i]) {
        result.failed_sources.push_back(i);
      }
    }
    // One aggregate breaker verdict per endpoint actually probed, stamped
    // at the query's virtual end time, then advance the clock past it so
    // open-breaker cooldowns elapse across queries.
    const int64_t query_end = federation.clock_.NowMicros() + log.micros;
    for (size_t i = 0; i < num_endpoints; ++i) {
      if (log.probed[i]) {
        federation.health_.endpoint(i).ReportQuery(!log.failed[i],
                                                   query_end);
      }
    }
    const EndpointHealth::Counters counters_after =
        federation.health_.Totals();
    federation.fault_stats_.breaker_opens +=
        counters_after.opens - counters_before.opens;
    federation.fault_stats_.breaker_half_opens +=
        counters_after.half_opens - counters_before.half_opens;
    federation.fault_stats_.breaker_closes +=
        counters_after.closes - counters_before.closes;
    federation.clock_.Advance(log.micros + 1);
    ++federation.fault_stats_.queries;
  }
  result.complete = !result.row_capped && !result.truncated &&
                    result.failed_sources.empty();
  if (resilient && !result.complete) ++federation.fault_stats_.degraded;
  return result;
}

}  // namespace alex::fed
