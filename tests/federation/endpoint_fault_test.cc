// Fault-tolerant federation: endpoint abstraction, deterministic fault
// injection, retry/backoff, circuit breaking, and partial-result semantics.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/profiles.h"
#include "datagen/world.h"
#include "eval/experiment.h"
#include "eval/query_workload.h"
#include "federation/endpoint.h"
#include "federation/fault_injection.h"
#include "federation/federated_engine.h"
#include "federation/health.h"
#include "federation/link_set.h"
#include "federation/query_cache.h"
#include "federation/retry_policy.h"
#include "linking/paris.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using linking::Link;
using rdf::Term;
using rdf::TripleStore;

// -------------------------------------------------------------------------
// Unit: LocalEndpoint

TEST(LocalEndpointTest, ProbeMatchesStoreExactly) {
  TripleStore store("s");
  store.Add(Term::Iri("http://a"), Term::Iri("http://p"), Term::Iri("http://b"));
  store.Add(Term::Iri("http://a"), Term::Iri("http://p"), Term::Iri("http://c"));
  LocalEndpoint endpoint(&store);
  EXPECT_TRUE(endpoint.reliable());
  EXPECT_EQ(endpoint.name(), "s");

  ProbeResult result;
  ASSERT_TRUE(endpoint
                  .Probe(std::nullopt, std::nullopt, std::nullopt,
                         /*query_salt=*/7, /*attempt=*/0, &result)
                  .ok());
  EXPECT_EQ(result.triples.size(), store.Match({}, {}, {}).size());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.latency_micros, 0);
}

// -------------------------------------------------------------------------
// Unit: retry policy

TEST(RetryPolicyTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
}

TEST(RetryPolicyTest, BackoffGrowsIsCappedAndJitterIsDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 3000;
  policy.jitter_fraction = 0.5;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const int64_t base =
        std::min<int64_t>(1000 * (int64_t{1} << (attempt - 1)), 3000);
    const int64_t delay = BackoffMicros(policy, attempt, /*jitter_key=*/42);
    EXPECT_GE(delay, base / 2) << "attempt " << attempt;
    EXPECT_LE(delay, base + base / 2) << "attempt " << attempt;
    // Pure function of (policy, attempt, key).
    EXPECT_EQ(delay, BackoffMicros(policy, attempt, 42));
  }
  // Different keys draw different jitter (with overwhelming probability for
  // these two particular keys — this is a fixed, deterministic check).
  EXPECT_NE(BackoffMicros(policy, 1, 1), BackoffMicros(policy, 1, 2));
}

TEST(RetryPolicyTest, ZeroJitterIsExact) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_micros = 100000;
  policy.jitter_fraction = 0.0;
  EXPECT_EQ(BackoffMicros(policy, 1, 9), 100);
  EXPECT_EQ(BackoffMicros(policy, 2, 9), 300);
  EXPECT_EQ(BackoffMicros(policy, 3, 9), 900);
}

// -------------------------------------------------------------------------
// Unit: circuit breaker state machine

TEST(EndpointHealthTest, OpensAfterConsecutiveFailuresAndRecovers) {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown_micros = 10;
  options.half_open_successes = 1;
  EndpointHealth health(options);

  EXPECT_EQ(health.state(), BreakerState::kClosed);
  health.ReportQuery(false, 0);
  EXPECT_EQ(health.state(), BreakerState::kClosed);
  health.ReportQuery(false, 1);
  EXPECT_EQ(health.state(), BreakerState::kOpen);
  EXPECT_FALSE(health.AllowProbe(5));  // cooldown not elapsed
  EXPECT_TRUE(health.AllowProbe(11));  // open -> half-open
  EXPECT_EQ(health.state(), BreakerState::kHalfOpen);
  health.ReportQuery(true, 12);  // half-open -> closed
  EXPECT_EQ(health.state(), BreakerState::kClosed);
  EXPECT_EQ(health.counters().opens, 1u);
  EXPECT_EQ(health.counters().half_opens, 1u);
  EXPECT_EQ(health.counters().closes, 1u);
}

TEST(EndpointHealthTest, HalfOpenFailureReopensAndSuccessResetsStreak) {
  BreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown_micros = 10;
  EndpointHealth health(options);

  // A healthy query resets the consecutive-failure streak.
  health.ReportQuery(false, 0);
  health.ReportQuery(false, 1);
  health.ReportQuery(true, 2);
  EXPECT_EQ(health.consecutive_failures(), 0);
  EXPECT_EQ(health.state(), BreakerState::kClosed);

  for (int i = 0; i < 3; ++i) health.ReportQuery(false, 3 + i);
  EXPECT_EQ(health.state(), BreakerState::kOpen);
  EXPECT_TRUE(health.AllowProbe(20));  // -> half-open
  health.ReportQuery(false, 21);       // half-open failure reopens
  EXPECT_EQ(health.state(), BreakerState::kOpen);
  EXPECT_EQ(health.counters().opens, 2u);
}

TEST(BreakerStateNameTest, NamesAllStates) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

// -------------------------------------------------------------------------
// Unit: fault injection

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : store_("src"), local_(&store_) {
    store_.Add(Term::Iri("http://a"), Term::Iri("http://p"),
               Term::Iri("http://b"));
    store_.Add(Term::Iri("http://a"), Term::Iri("http://p"),
               Term::Iri("http://c"));
    store_.Add(Term::Iri("http://a"), Term::Iri("http://p"),
               Term::Iri("http://d"));
    store_.Add(Term::Iri("http://a"), Term::Iri("http://p"),
               Term::Iri("http://e"));
  }

  TripleStore store_;
  LocalEndpoint local_;
};

TEST_F(FaultInjectionTest, ZeroProfileIsReliablePassthrough) {
  FaultProfile profile;
  EXPECT_TRUE(profile.IsZero());
  FaultInjectingEndpoint endpoint(&local_, 0, profile);
  EXPECT_TRUE(endpoint.reliable());
  EXPECT_FALSE(endpoint.permanently_down());
  ProbeResult result;
  ASSERT_TRUE(
      endpoint.Probe(std::nullopt, std::nullopt, std::nullopt, 1, 0, &result)
          .ok());
  EXPECT_EQ(result.triples.size(), 4u);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.latency_micros, 0);
}

TEST_F(FaultInjectionTest, DecisionsAreAPureFunctionOfTheProbeIdentity) {
  FaultProfile profile;
  profile.seed = 99;
  profile.transient_error_rate = 0.5;
  profile.base_latency_micros = 10;
  profile.latency_jitter_micros = 100;
  FaultInjectingEndpoint a(&local_, 1, profile);
  FaultInjectingEndpoint b(&local_, 1, profile);  // separate instance
  for (uint64_t salt = 0; salt < 32; ++salt) {
    ProbeResult ra, rb;
    Status sa = a.Probe(std::nullopt, std::nullopt, std::nullopt, salt,
                        /*attempt=*/0, &ra);
    Status sb = b.Probe(std::nullopt, std::nullopt, std::nullopt, salt,
                        /*attempt=*/0, &rb);
    EXPECT_EQ(sa.code(), sb.code()) << salt;
    EXPECT_EQ(ra.latency_micros, rb.latency_micros) << salt;
    EXPECT_EQ(ra.triples.size(), rb.triples.size()) << salt;
  }
}

TEST_F(FaultInjectionTest, AttemptOrdinalRedrawsTransientFate) {
  FaultProfile profile;
  profile.seed = 7;
  profile.transient_error_rate = 0.5;
  FaultInjectingEndpoint endpoint(&local_, 0, profile);
  // Across many (salt, attempt) draws both outcomes must occur — retrying
  // a transient failure can genuinely succeed.
  int failures = 0, successes = 0;
  for (uint64_t salt = 0; salt < 64; ++salt) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      ProbeResult result;
      Status st = endpoint.Probe(std::nullopt, std::nullopt, std::nullopt,
                                 salt, attempt, &result);
      (st.ok() ? successes : failures)++;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

TEST_F(FaultInjectionTest, PermanentOutageFailsEveryProbe) {
  FaultProfile profile;
  profile.seed = 3;
  profile.permanent_outage_rate = 1.0;
  FaultInjectingEndpoint endpoint(&local_, 0, profile);
  EXPECT_TRUE(endpoint.permanently_down());
  for (uint64_t salt = 0; salt < 8; ++salt) {
    ProbeResult result;
    Status st = endpoint.Probe(std::nullopt, std::nullopt, std::nullopt,
                               salt, 0, &result);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(result.triples.empty());
  }
}

TEST_F(FaultInjectionTest, TruncationKeepsAPrefixAndFlagsIt) {
  FaultProfile profile;
  profile.seed = 11;
  profile.truncation_rate = 1.0;
  profile.truncation_keep_fraction = 0.5;
  FaultInjectingEndpoint endpoint(&local_, 0, profile);
  ProbeResult result;
  ASSERT_TRUE(
      endpoint.Probe(std::nullopt, std::nullopt, std::nullopt, 1, 0, &result)
          .ok());
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.triples.size(), 2u);  // floor(4 * 0.5)
  // The kept triples are a prefix of the full result.
  std::vector<rdf::Triple> full = store_.Match({}, {}, {});
  for (size_t i = 0; i < result.triples.size(); ++i) {
    EXPECT_TRUE(result.triples[i] == full[i]);
  }
}

TEST_F(FaultInjectionTest, LatencyOverTimeoutBecomesDeadlineExceeded) {
  FaultProfile profile;
  profile.seed = 5;
  profile.base_latency_micros = 500;
  profile.probe_timeout_micros = 100;
  FaultInjectingEndpoint endpoint(&local_, 0, profile);
  EXPECT_FALSE(endpoint.reliable());
  ProbeResult result;
  Status st =
      endpoint.Probe(std::nullopt, std::nullopt, std::nullopt, 1, 0, &result);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The caller waited out the full timeout before giving up.
  EXPECT_EQ(result.latency_micros, 100);
}

// -------------------------------------------------------------------------
// Engine-level: resilient execution over unreliable endpoints.

// Fails the first `fail_probes` probes with kUnavailable, then recovers.
// Stateful on purpose (unit tests drive the engine sequentially): it lets
// the breaker walk closed -> open -> half-open -> closed against a source
// that actually heals.
class ScriptedEndpoint final : public Endpoint {
 public:
  ScriptedEndpoint(const TripleStore* store, int fail_probes)
      : store_(store), fail_probes_(fail_probes) {}

  const TripleStore& store() const override { return *store_; }

  Status Probe(rdf::TermPattern s, rdf::TermPattern p, rdf::TermPattern o,
               uint64_t, int, ProbeResult* out) override {
    out->triples.clear();
    out->truncated = false;
    out->latency_micros = 0;
    if (fail_probes_ > 0) {
      --fail_probes_;
      return Status::Unavailable("scripted failure");
    }
    out->triples = store_->Match(s, p, o);
    return Status::Ok();
  }

  bool reliable() const override { return false; }
  const std::string& name() const override { return store_->name(); }

 private:
  const TripleStore* store_;
  int fail_probes_;
};

// An unreliable endpoint whose first probe runs `on_probe`: a test uses it
// to start a second query while the first is in flight, deterministically.
class ReentrantEndpoint final : public Endpoint {
 public:
  explicit ReentrantEndpoint(const TripleStore* store) : store_(store) {}

  const TripleStore& store() const override { return *store_; }

  Status Probe(rdf::TermPattern s, rdf::TermPattern p, rdf::TermPattern o,
               uint64_t, int, ProbeResult* out) override {
    if (on_probe) std::exchange(on_probe, nullptr)();
    out->triples = store_->Match(s, p, o);
    out->truncated = false;
    out->latency_micros = 0;
    return Status::Ok();
  }

  bool reliable() const override { return false; }
  const std::string& name() const override { return store_->name(); }

  std::function<void()> on_probe;

 private:
  const TripleStore* store_;
};

class FaultyEngineTest : public ::testing::Test {
 protected:
  FaultyEngineTest() : dbpedia_("dbpedia"), nytimes_("nytimes") {
    dbpedia_.Add(Term::Iri("http://dbpedia.org/LeBron_James"),
                 Term::Iri("http://dbpedia.org/award"),
                 Term::StringLiteral("NBA MVP 2013"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/1"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/lebron"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/2"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/lebron"));
    StagedLinkSet staged;
    staged.Stage(Link{"http://dbpedia.org/LeBron_James",
                      "http://nyt.com/person/lebron", 0.99},
                 true);
    links_ = staged.Publish();
    lebron_q_ =
        "SELECT ?article WHERE { "
        "?player <http://dbpedia.org/award> \"NBA MVP 2013\" . "
        "?article <http://nyt.com/about> ?player }";
  }

  // Runs three queries in order on a fresh engine over endpoints with
  // transient errors, truncation, latency spikes and timeouts, capped at
  // `max_rows`, and renders each result — its completeness flags, probe
  // counters, virtual cost, failed sources, then its answers with their
  // links — followed by the federation's final virtual clock.
  std::string FaultTimeline(size_t max_rows) const {
    FaultProfile profile;
    profile.seed = 777;
    profile.transient_error_rate = 0.3;
    profile.truncation_rate = 0.2;
    profile.truncation_keep_fraction = 0.5;
    profile.base_latency_micros = 50;
    profile.latency_jitter_micros = 200;
    profile.spike_rate = 0.1;
    profile.spike_latency_micros = 5000;
    profile.probe_timeout_micros = 4000;
    const std::vector<std::string> queries = {
        lebron_q_,
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT ?award WHERE { ?article <http://nyt.com/about> ?person . "
        "?person <http://dbpedia.org/award> ?award }",
    };

    LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
    FaultInjectingEndpoint faulty0(&local0, 0, profile);
    FaultInjectingEndpoint faulty1(&local1, 1, profile);
    std::vector<Endpoint*> endpoints = {&faulty0, &faulty1};
    FederatedEngine engine(endpoints, links_.get());
    FederatedOptions options;
    options.max_rows = max_rows;
    std::ostringstream out;
    for (const std::string& text : queries) {
      Result<FederatedResult> result = engine.ExecuteText(text, options);
      if (!result.ok()) {
        out << "error " << result.status().ToString() << "\n";
        continue;
      }
      out << "complete " << result->complete << " truncated "
          << result->truncated << " row_capped " << result->row_capped
          << " probes " << result->probes << " retries " << result->retries
          << " short_circuits " << result->short_circuits << " micros "
          << result->virtual_micros << " failed";
      for (size_t source : result->failed_sources) out << ' ' << source;
      out << "\n";
      for (const FederatedAnswer& answer : result->answers) {
        out << ' ';
        for (const auto& [var, term] : answer.binding) {
          out << ' ' << var << '=' << term.ToString();
        }
        for (const Link& link : answer.links_used) {
          out << " via " << link.left << ' ' << link.right;
        }
        out << "\n";
      }
    }
    out << "clock " << engine.federation().virtual_now_micros() << "\n";
    return out.str();
  }

  TripleStore dbpedia_;
  TripleStore nytimes_;
  std::shared_ptr<const LinkView> links_;
  std::string lebron_q_;
};

TEST_F(FaultyEngineTest, ZeroFaultEndpointsAreBitwiseIdenticalToSeedEngine) {
  FederatedEngine seed_engine({&dbpedia_, &nytimes_}, links_.get());

  LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
  FaultProfile zero;
  FaultInjectingEndpoint faulty0(&local0, 0, zero), faulty1(&local1, 1, zero);
  std::vector<Endpoint*> endpoints = {&faulty0, &faulty1};
  FederatedEngine wrapped_engine(endpoints, links_.get());
  EXPECT_FALSE(wrapped_engine.federation().resilient());

  for (const std::string& text :
       {lebron_q_,
        std::string("SELECT ?s ?p ?o WHERE { ?s ?p ?o }"),
        std::string("ASK WHERE { ?a <http://nyt.com/about> ?p }")}) {
    auto a = seed_engine.ExecuteText(text);
    auto b = wrapped_engine.ExecuteText(text);
    ASSERT_TRUE(a.ok() && b.ok()) << text;
    EXPECT_TRUE(a->complete && b->complete) << text;
    ASSERT_EQ(a->answers.size(), b->answers.size()) << text;
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_TRUE(a->answers[i].binding == b->answers[i].binding) << text;
      EXPECT_TRUE(a->answers[i].links_used == b->answers[i].links_used)
          << text;
    }
  }
}

TEST_F(FaultyEngineTest, DownEndpointYieldsIncompleteResultNotAnError) {
  LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
  FaultProfile down;
  down.seed = 21;
  down.permanent_outage_rate = 1.0;
  FaultInjectingEndpoint faulty1(&local1, 1, down);  // nytimes is down
  std::vector<Endpoint*> endpoints = {&local0, &faulty1};
  FederatedEngine engine(endpoints, links_.get());
  EXPECT_TRUE(engine.federation().resilient());

  auto result = engine.ExecuteText(lebron_q_);
  ASSERT_TRUE(result.ok());  // degraded, not a hard error
  EXPECT_FALSE(result->complete);
  EXPECT_TRUE(result->answers.empty());  // the join needed nytimes
  ASSERT_EQ(result->failed_sources.size(), 1u);
  EXPECT_EQ(result->failed_sources[0], 1u);
  // Retried up to the policy's max attempts.
  EXPECT_GT(result->retries, 0u);
  EXPECT_GT(result->probes, result->retries);
}

TEST_F(FaultyEngineTest, TruncatedProbeMarksResultIncomplete) {
  LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
  FaultProfile truncating;
  truncating.seed = 4;
  truncating.truncation_rate = 1.0;
  truncating.truncation_keep_fraction = 0.5;
  FaultInjectingEndpoint faulty1(&local1, 1, truncating);
  std::vector<Endpoint*> endpoints = {&local0, &faulty1};
  FederatedEngine engine(endpoints, links_.get());

  auto result = engine.ExecuteText(lebron_q_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->complete);
  // Partial answers: the probe kept 1 of the 2 matching articles.
  EXPECT_EQ(result->answers.size(), 1u);
  ASSERT_EQ(result->failed_sources.size(), 1u);
  EXPECT_EQ(result->failed_sources[0], 1u);
}

TEST_F(FaultyEngineTest, BreakerOpensShortCircuitsAndRecovers) {
  LocalEndpoint local0(&dbpedia_);
  // nytimes fails its first 2 probes, then heals.
  ScriptedEndpoint flaky1(&nytimes_, /*fail_probes=*/2);
  std::vector<Endpoint*> endpoints = {&local0, &flaky1};
  FederatedEngine engine(endpoints, links_.get());
  Resilience resilience;
  resilience.retry.max_attempts = 1;  // one probe per pattern, no backoff
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_micros = 3;
  resilience.breaker.half_open_successes = 1;
  engine.federation().set_resilience(resilience);

  sparql::Query query;
  {
    auto parsed = sparql::ParseQuery(lebron_q_);
    ASSERT_TRUE(parsed.ok());
    query = std::move(parsed).value();
  }
  FederatedOptions options;

  // Queries 1-2: probes fail -> two failed verdicts -> breaker opens.
  options.fault_salt = 1;
  auto q1 = engine.Execute(query, options);
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(q1->complete);
  EXPECT_EQ(q1->short_circuits, 0u);
  options.fault_salt = 2;
  auto q2 = engine.Execute(query, options);
  ASSERT_TRUE(q2.ok());
  const HealthTracker& health = engine.federation().health();
  EXPECT_EQ(health.endpoint(1).state(), BreakerState::kOpen);

  // Query 3: inside the cooldown -> short-circuited, endpoint not probed.
  options.fault_salt = 3;
  auto q3 = engine.Execute(query, options);
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3->short_circuits, 0u);
  EXPECT_FALSE(q3->complete);

  // Let virtual time pass (each query advances the clock) until the
  // cooldown elapses; the endpoint has healed, so the half-open probe
  // succeeds and the breaker closes again.
  bool recovered = false;
  for (int i = 4; i < 12 && !recovered; ++i) {
    options.fault_salt = static_cast<uint64_t>(i);
    auto q = engine.Execute(query, options);
    ASSERT_TRUE(q.ok());
    recovered = q->complete;
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(health.endpoint(1).state(), BreakerState::kClosed);

  FaultStats stats = engine.federation().TakeFaultStats();
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_GE(stats.breaker_half_opens, 1u);
  EXPECT_GE(stats.breaker_closes, 1u);
  EXPECT_GT(stats.degraded, 0u);
  // TakeFaultStats resets.
  EXPECT_EQ(engine.federation().TakeFaultStats().queries, 0u);
}

// Engines over one Federation share its breaker state, clock and counters,
// which the resilient path mutates without a lock: a resilient query that
// starts while another is in flight fails a check instead of racing.
TEST_F(FaultyEngineTest, OverlappingResilientQueriesFailACheck) {
  LocalEndpoint local0(&dbpedia_);
  ReentrantEndpoint reentrant1(&nytimes_);
  std::vector<Endpoint*> endpoints = {&local0, &reentrant1};
  auto federation = std::make_shared<Federation>(endpoints);
  ASSERT_TRUE(federation->resilient());
  FederatedEngine outer(federation, links_.get());
  FederatedEngine inner(federation, links_.get());

  // One at a time across the two engines is fine.
  ASSERT_TRUE(outer.ExecuteText(lebron_q_).ok());
  ASSERT_TRUE(inner.ExecuteText(lebron_q_).ok());

  reentrant1.on_probe = [&] { (void)inner.ExecuteText(lebron_q_); };
  EXPECT_DEATH((void)outer.ExecuteText(lebron_q_), "one at a time");
}

TEST_F(FaultyEngineTest, IncompleteResultsAreNeverCached) {
  LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
  FaultProfile flaky;
  flaky.seed = 13;
  flaky.transient_error_rate = 1.0;  // every probe fails, retries exhausted
  FaultInjectingEndpoint faulty0(&local0, 0, flaky), faulty1(&local1, 1, flaky);
  std::vector<Endpoint*> endpoints = {&faulty0, &faulty1};
  FederatedEngine engine(endpoints, links_.get());
  FederatedQueryCache cache;
  engine.set_cache(&cache);

  auto first = engine.ExecuteText(lebron_q_);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->complete);
  EXPECT_EQ(cache.size(), 0u);

  auto second = engine.ExecuteText(lebron_q_);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// With a fixed fault seed, two fresh engines report the same timeline.
TEST_F(FaultyEngineTest, FaultSeededExecutionReplaysOnFreshEngines) {
  for (size_t max_rows : {size_t{100000}, size_t{1}}) {
    EXPECT_EQ(FaultTimeline(max_rows), FaultTimeline(max_rows))
        << "max_rows " << max_rows;
  }
}

// The resilient timeline is pinned at three row caps: every answer and its
// links, the completeness flags, probe counters, virtual cost and failed
// sources of each query, and the final virtual clock. The caps of 3 and 1
// stop enumeration inside a query, where a change of evaluation order would
// change which rows are kept and which probes are issued.
TEST_F(FaultyEngineTest, ResilientTimelineIsPinned) {
  EXPECT_EQ(FaultTimeline(100000),
            "complete 1 truncated 0 row_capped 0 probes 3 retries 1 "
            "short_circuits 0 micros 1025 failed\n"
            "  article=<http://nyt.com/article/1> via "
            "http://dbpedia.org/LeBron_James http://nyt.com/person/lebron\n"
            "  article=<http://nyt.com/article/2> via "
            "http://dbpedia.org/LeBron_James http://nyt.com/person/lebron\n"
            "complete 1 truncated 0 row_capped 0 probes 3 retries 1 "
            "short_circuits 0 micros 1798 failed\n"
            "  o=\"NBA MVP 2013\" p=<http://dbpedia.org/award> "
            "s=<http://dbpedia.org/LeBron_James>\n"
            "  o=<http://nyt.com/person/lebron> p=<http://nyt.com/about> "
            "s=<http://nyt.com/article/1>\n"
            "  o=<http://nyt.com/person/lebron> p=<http://nyt.com/about> "
            "s=<http://nyt.com/article/2>\n"
            "complete 1 truncated 0 row_capped 0 probes 3 retries 0 "
            "short_circuits 0 micros 629 failed\n"
            "  award=\"NBA MVP 2013\" via http://dbpedia.org/LeBron_James "
            "http://nyt.com/person/lebron\n"
            "  award=\"NBA MVP 2013\" via http://dbpedia.org/LeBron_James "
            "http://nyt.com/person/lebron\n"
            "clock 3455\n");
  EXPECT_EQ(FaultTimeline(3),
            "complete 1 truncated 0 row_capped 0 probes 2 retries 0 "
            "short_circuits 0 micros 300 failed\n"
            "  article=<http://nyt.com/article/1> via "
            "http://dbpedia.org/LeBron_James http://nyt.com/person/lebron\n"
            "  article=<http://nyt.com/article/2> via "
            "http://dbpedia.org/LeBron_James http://nyt.com/person/lebron\n"
            "complete 0 truncated 1 row_capped 0 probes 2 retries 0 "
            "short_circuits 0 micros 303 failed 1\n"
            "  o=\"NBA MVP 2013\" p=<http://dbpedia.org/award> "
            "s=<http://dbpedia.org/LeBron_James>\n"
            "  o=<http://nyt.com/person/lebron> p=<http://nyt.com/about> "
            "s=<http://nyt.com/article/1>\n"
            "complete 1 truncated 0 row_capped 0 probes 3 retries 0 "
            "short_circuits 0 micros 575 failed\n"
            "  award=\"NBA MVP 2013\" via http://dbpedia.org/LeBron_James "
            "http://nyt.com/person/lebron\n"
            "  award=\"NBA MVP 2013\" via http://dbpedia.org/LeBron_James "
            "http://nyt.com/person/lebron\n"
            "clock 1181\n");
  EXPECT_EQ(FaultTimeline(1),
            "complete 0 truncated 0 row_capped 1 probes 2 retries 0 "
            "short_circuits 0 micros 315 failed\n"
            "  article=<http://nyt.com/article/1> via "
            "http://dbpedia.org/LeBron_James http://nyt.com/person/lebron\n"
            "complete 0 truncated 1 row_capped 1 probes 4 retries 2 "
            "short_circuits 0 micros 4633 failed 0 1\n"
            "  o=<http://nyt.com/person/lebron> p=<http://nyt.com/about> "
            "s=<http://nyt.com/article/1>\n"
            "complete 0 truncated 1 row_capped 0 probes 4 retries 2 "
            "short_circuits 0 micros 10987 failed 0 1\n"
            "clock 15938\n");
}

// A capped query stops probing once its cap fills, on the resilient path as
// on the reliable one: the first source's triple fills a cap of 1, so the
// second source is never probed or charged.
TEST_F(FaultyEngineTest, RowCapStopsProbing) {
  FaultProfile slow;
  slow.seed = 5;
  slow.base_latency_micros = 100;
  LocalEndpoint local0(&dbpedia_), local1(&nytimes_);
  FaultInjectingEndpoint faulty0(&local0, 0, slow), faulty1(&local1, 1, slow);
  std::vector<Endpoint*> endpoints = {&faulty0, &faulty1};
  FederatedEngine engine(endpoints, links_.get());
  ASSERT_TRUE(engine.federation().resilient());
  FederatedOptions capped;
  capped.max_rows = 1;

  auto result = engine.ExecuteText("SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
                                   capped);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0].binding.at("s"),
            Term::Iri("http://dbpedia.org/LeBron_James"));
  EXPECT_TRUE(result->row_capped);
  EXPECT_EQ(result->probes, 1u);
  EXPECT_EQ(result->virtual_micros, 100);
  EXPECT_TRUE(result->failed_sources.empty());
}

// Graceful degradation, not a cliff: the dbpedia_nytimes world's 250-query
// workload over endpoints whose transient-error rate sweeps 0..0.4 (and
// truncation rate half that, fault seed 0xfed5). Every query is complete at
// rate 0; at rate 0.4 a share above 0, and below rate 0's, still is.
TEST(FaultSweepTest, CompletenessDegradesGracefully) {
  eval::ExperimentConfig config;
  ASSERT_TRUE(datagen::ProfileByName("dbpedia_nytimes", &config.profile));
  datagen::GeneratedWorld world = datagen::Generate(config.profile);
  StagedLinkSet staged;
  for (const Link& link : linking::FilterByScore(
           linking::RunParis(world.left, world.right),
           linking::kParisThreshold)) {
    staged.Stage(link, true);
  }
  const std::shared_ptr<const LinkView> links = staged.Publish();
  eval::WorkloadOptions workload_options;
  workload_options.num_queries = 250;
  const std::vector<eval::WorkloadQuery> workload =
      eval::GenerateWorkload(world, workload_options);

  std::vector<double> completeness;
  for (double rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    FaultProfile profile;
    profile.seed = 0xfed5;
    profile.transient_error_rate = rate;
    profile.truncation_rate = rate / 2.0;
    profile.truncation_keep_fraction = 0.5;
    LocalEndpoint local0(&world.left), local1(&world.right);
    FaultInjectingEndpoint faulty0(&local0, 0, profile);
    FaultInjectingEndpoint faulty1(&local1, 1, profile);
    std::vector<Endpoint*> endpoints = {&faulty0, &faulty1};
    FederatedEngine engine(endpoints, links.get());
    size_t complete = 0;
    for (const eval::WorkloadQuery& query : workload) {
      Result<FederatedResult> result = engine.ExecuteText(query.text);
      ASSERT_TRUE(result.ok()) << query.text;
      if (result->complete) ++complete;
    }
    completeness.push_back(static_cast<double>(complete) /
                           static_cast<double>(workload.size()));
  }
  EXPECT_EQ(completeness.front(), 1.0);
  EXPECT_GT(completeness.back(), 0.0);
  EXPECT_LT(completeness.back(), completeness.front());
}

}  // namespace
}  // namespace alex::fed
