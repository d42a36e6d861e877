// Targeted tests for the DP plan generator, the Explain rendering, and the
// plan cache: join-method selection on shapes designed to make one method
// clearly cheapest, aggregated-scan elimination under DISTINCT, and the
// cache's hit / recompile / drift-invalidation behavior, and the greedy
// fallback for groups the generator declines. Identity between the
// executor and the term-space oracle is asserted on every executed query;
// the randomized sweep lives in differential_test.cc.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/dataset_stats.h"
#include "rdf/triple_store.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/plan_cache.h"
#include "sparql/plangen.h"
#include "sparql/term_oracle.h"

namespace alex::sparql {
namespace {

rdf::Term Iri(const std::string& suffix) {
  return rdf::Term::Iri("http://ex/" + suffix);
}

// Compiles `text` with physical plans and returns the compiled form.
CompiledQuery CompileText(const Query& query, const rdf::TripleStore& store,
                          const rdf::DatasetStats* stats) {
  CompileOptions options;
  options.stats = stats;
  options.build_physical_plans = true;
  return CompileQuery(query, store, options);
}

bool PlanContains(const PhysicalPlan& plan, PlanOpKind kind) {
  for (const PlanOp& op : plan.ops) {
    if (op.kind == kind) return true;
  }
  return false;
}

// The canonically sorted rows of `rows`, or none (and a failure) when it
// is an error.
std::vector<Binding> Sorted(Result<std::vector<Binding>> rows,
                            const std::string& text) {
  EXPECT_TRUE(rows.ok()) << text << ": " << rows.status().ToString();
  std::vector<Binding> out =
      rows.ok() ? std::move(rows).value() : std::vector<Binding>{};
  std::sort(out.begin(), out.end());
  return out;
}

// Runs `text` through Execute (or, with `oracle`, the term-space oracle)
// and returns the canonically sorted rows.
std::vector<Binding> SortedRows(const std::string& text,
                                const rdf::TripleStore& store,
                                bool oracle = false) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  if (!query.ok()) return {};
  return Sorted(oracle ? OracleExecute(query.value(), store)
                       : Execute(query.value(), store),
                text);
}

void ExpectPlannedMatchesOracle(const std::string& text,
                                const rdf::TripleStore& store) {
  EXPECT_EQ(SortedRows(text, store), SortedRows(text, store, /*oracle=*/true))
      << text;
}

TEST(PlanGenTest, MergeJoinChosenWhenOrdersAlign) {
  // Both patterns are full-prefix POS ranges (predicate and object
  // constant), so each scan comes back sorted on ?s. With symmetric sides
  // of 60 rows the merge (cost 4N + R) beats both the lookup join
  // (cost 5N + R) and the hash join (cost 5N + R), so the DP must pick it.
  rdf::TripleStore store("merge");
  for (int i = 0; i < 60; ++i) {
    rdf::Term subject = Iri("s" + std::to_string(i));
    store.Add(subject, Iri("p1"), rdf::Term::StringLiteral("v1"));
    store.Add(subject, Iri("p2"), rdf::Term::StringLiteral("v2"));
  }
  const std::string text =
      "SELECT ?s WHERE { ?s <http://ex/p1> \"v1\" . "
      "?s <http://ex/p2> \"v2\" }";
  Result<Query> query = ParseQuery(text);
  ASSERT_TRUE(query.ok());
  rdf::DatasetStats stats = rdf::ComputeStats(store);
  CompiledQuery compiled = CompileText(query.value(), store, &stats);
  ASSERT_EQ(compiled.plans.size(), 1u);
  ASSERT_GE(compiled.plans[0].root, 0);
  EXPECT_TRUE(PlanContains(compiled.plans[0], PlanOpKind::kMergeJoin))
      << RenderPlan(compiled.plans[0], compiled, 0);
  ExpectPlannedMatchesOracle(text, store);
}

TEST(PlanGenTest, LookupJoinChosenForAnchoredPattern) {
  // One pattern is anchored to a single subject (1 row); probing the wide
  // pattern once is far cheaper than scanning its 200 rows for a merge or
  // hash build.
  rdf::TripleStore store("anchored");
  for (int i = 0; i < 200; ++i) {
    store.Add(Iri("s" + std::to_string(i)), Iri("name"),
              rdf::Term::StringLiteral("n" + std::to_string(i)));
  }
  store.Add(Iri("root"), Iri("child"), Iri("s7"));
  const std::string text =
      "SELECT ?n WHERE { <http://ex/root> <http://ex/child> ?c . "
      "?c <http://ex/name> ?n }";
  Result<Query> query = ParseQuery(text);
  ASSERT_TRUE(query.ok());
  rdf::DatasetStats stats = rdf::ComputeStats(store);
  CompiledQuery compiled = CompileText(query.value(), store, &stats);
  ASSERT_EQ(compiled.plans.size(), 1u);
  ASSERT_GE(compiled.plans[0].root, 0);
  EXPECT_TRUE(PlanContains(compiled.plans[0], PlanOpKind::kIndexLookupJoin))
      << RenderPlan(compiled.plans[0], compiled, 0);
  ExpectPlannedMatchesOracle(text, store);
}

TEST(PlanGenTest, AggregatedScanForDistinctProjection) {
  // ?x occurs once and is never observed, and it sits in the trailing key
  // position of p1's POS index (p, o, s): the pattern's 30-row range
  // collapses to its 3 distinct ?a values under an aggregated scan. The
  // aggregated leaf costs the same as the plain scan (the range is walked
  // either way) but feeds 10x fewer rows into the join above, so the DP
  // must prefer it.
  rdf::TripleStore store("distinct");
  for (int j = 0; j < 200; ++j) {
    store.Add(Iri("a" + std::to_string(j)), Iri("p2"),
              rdf::Term::StringLiteral("c"));
  }
  for (int i = 0; i < 30; ++i) {
    store.Add(Iri("x" + std::to_string(i)), Iri("p1"),
              Iri("a" + std::to_string(i % 3)));
  }
  const std::string text =
      "SELECT DISTINCT ?a WHERE { ?x <http://ex/p1> ?a . "
      "?a <http://ex/p2> \"c\" }";
  Result<Query> query = ParseQuery(text);
  ASSERT_TRUE(query.ok());
  rdf::DatasetStats stats = rdf::ComputeStats(store);
  CompiledQuery compiled = CompileText(query.value(), store, &stats);
  ASSERT_EQ(compiled.plans.size(), 1u);
  ASSERT_GE(compiled.plans[0].root, 0);
  EXPECT_TRUE(
      PlanContains(compiled.plans[0], PlanOpKind::kAggregatedIndexScan))
      << RenderPlan(compiled.plans[0], compiled, 0);
  std::vector<Binding> planned = SortedRows(text, store);
  EXPECT_EQ(planned.size(), 3u);
  EXPECT_EQ(planned, SortedRows(text, store, /*oracle=*/true));
}

TEST(PlanGenTest, ExplainReportsEstimatesAndActuals) {
  rdf::TripleStore store("explain");
  for (int i = 0; i < 10; ++i) {
    rdf::Term subject = Iri("s" + std::to_string(i));
    store.Add(subject, Iri("type"), Iri("T"));
    store.Add(subject, Iri("name"),
              rdf::Term::StringLiteral("n" + std::to_string(i)));
  }
  Result<Query> query = ParseQuery(
      "SELECT ?n WHERE { ?s <http://ex/type> <http://ex/T> . "
      "?s <http://ex/name> ?n }");
  ASSERT_TRUE(query.ok());
  Result<std::string> text = Explain(query.value(), store);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("IndexScan"), std::string::npos) << *text;
  EXPECT_NE(text->find("est_rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual_rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("rows returned: 10"), std::string::npos) << *text;
}

TEST(PlanGenTest, GroupByAggregatesMatchLegacy) {
  // Id-space aggregation (COUNT / SUM / AVG / MIN / MAX) must reproduce
  // the oracle's term-space results exactly.
  rdf::TripleStore store("agg");
  for (int i = 0; i < 12; ++i) {
    rdf::Term subject = Iri("s" + std::to_string(i));
    store.Add(subject, Iri("bucket"), Iri("b" + std::to_string(i % 3)));
    store.Add(subject, Iri("score"), rdf::Term::IntegerLiteral(i * 7 % 11));
  }
  ExpectPlannedMatchesOracle(
      "SELECT ?b (COUNT(?s) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) "
      "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { "
      "?s <http://ex/bucket> ?b . ?s <http://ex/score> ?v } GROUP BY ?b",
      store);
}

TEST(PlanGenTest, GroupBeyondDpCapRunsGreedyThroughExecute) {
  // A chain of kMaxDpPatterns + 1 patterns: the generator declines the
  // group, so plain Execute enumerates it in the compiler's greedy order,
  // with the FILTER checked along the way, and Explain says so.
  rdf::TripleStore store("chain");
  const size_t length = kMaxDpPatterns + 1;
  for (size_t k = 0; k < length; ++k) {
    const rdf::Term predicate = Iri("p" + std::to_string(k));
    for (int i = 0; i < 6; ++i) {
      store.Add(Iri("n" + std::to_string(i)), predicate,
                Iri("n" + std::to_string((i + k) % 6)));
      if (i % 2 == 0) {
        store.Add(Iri("n" + std::to_string(i)), predicate,
                  Iri("n" + std::to_string((i * 5 + 1) % 6)));
      }
    }
  }
  std::string text = "SELECT ?x0 ?x" + std::to_string(length) + " WHERE { ";
  for (size_t k = 0; k < length; ++k) {
    text += "?x" + std::to_string(k) + " <http://ex/p" + std::to_string(k) +
            "> ?x" + std::to_string(k + 1) + " . ";
  }
  text += "FILTER(?x0 != ?x" + std::to_string(length) + ") }";
  Result<Query> query = ParseQuery(text);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  rdf::DatasetStats stats = rdf::ComputeStats(store);
  CompiledQuery compiled = CompileText(query.value(), store, &stats);
  ASSERT_EQ(compiled.plans.size(), 1u);
  EXPECT_LT(compiled.plans[0].root, 0);

  std::vector<Binding> oracle = SortedRows(text, store, /*oracle=*/true);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(SortedRows(text, store), oracle);
  Result<std::string> explained = Explain(query.value(), store);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("(greedy fallback: no physical plan)"),
            std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("rows returned: " + std::to_string(oracle.size())),
            std::string::npos)
      << *explained;

  // A plan-less compile passed as ExecuteOptions::plan takes the same
  // greedy path, here and on a group the generator would plan.
  const std::string small =
      "SELECT ?a ?c WHERE { ?a <http://ex/p0> ?b . ?b <http://ex/p1> ?c }";
  for (const std::string& greedy_text : {text, small}) {
    Result<Query> parsed = ParseQuery(greedy_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(Sorted(ExecuteGreedy(parsed.value(), store, &stats), greedy_text),
              SortedRows(greedy_text, store, /*oracle=*/true))
        << greedy_text;
  }
}

TEST(PlanCacheTest, ParseAndPlanHitsAccumulate) {
  PlanCache cache;
  const std::string text = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";

  Result<const Query*> first = cache.GetParsed(text);
  ASSERT_TRUE(first.ok());
  Result<const Query*> second = cache.GetParsed(text);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());  // pointer-stable

  PlanCache::Stats counters = cache.TakeStats();
  EXPECT_EQ(counters.parse_misses, 1u);
  EXPECT_EQ(counters.parse_hits, 1u);
  // The cache compiles no plans.
  EXPECT_EQ(counters.plan_misses, 0u);
  EXPECT_EQ(counters.plan_hits, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // TakeStats resets: a further hit starts the counters from zero.
  (void)cache.GetParsed(text);
  counters = cache.TakeStats();
  EXPECT_EQ(counters.parse_hits, 1u);
  EXPECT_EQ(counters.parse_misses, 0u);
}

TEST(PlanCacheTest, ParseErrorsAreCached) {
  PlanCache cache;
  const std::string bad = "SELECT WHERE {";
  EXPECT_FALSE(cache.GetParsed(bad).ok());
  EXPECT_FALSE(cache.GetParsed(bad).ok());
  PlanCache::Stats counters = cache.TakeStats();
  EXPECT_EQ(counters.parse_misses, 1u);
  EXPECT_EQ(counters.parse_hits, 1u);
}

}  // namespace
}  // namespace alex::sparql
