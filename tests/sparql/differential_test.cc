// Differential testing of the query executor's two join paths: its planned
// physical-operator trees (the default) and its greedy pattern-at-a-time
// enumeration (a CompiledQuery compiled without physical plans, passed as
// ExecuteOptions::plan) must both agree with the term-space oracle
// (term_oracle.h) on randomized queries over generated worlds. Enumeration
// ORDER may differ between them, so result multisets are compared
// canonically sorted; LIMIT without a total order is checked by size plus
// inclusion in the unlimited result. A separate test runs the same workload
// on 1 / 2 / 4 / 8 threads and requires bitwise-identical row vectors per
// query and path.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "rdf/dataset_stats.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/query_generator.h"
#include "sparql/term_oracle.h"

namespace alex::sparql {
namespace {

// The join path a run takes: the term-space oracle, the executor's greedy
// enumeration (a plan-less compile passed as ExecuteOptions::plan), or its
// planned operator trees (the default).
enum class Path { kOracle, kGreedy, kPlanned };

std::vector<Binding> RunPath(const std::string& text,
                             const rdf::TripleStore& store, Path path,
                             const rdf::DatasetStats* stats) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  if (!query.ok()) return {};
  ExecuteOptions options;
  options.stats = stats;
  Result<std::vector<Binding>> rows =
      path == Path::kOracle   ? OracleExecute(query.value(), store)
      : path == Path::kGreedy ? ExecuteGreedy(query.value(), store, stats)
                              : Execute(query.value(), store, options);
  EXPECT_TRUE(rows.ok()) << text << ": " << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Binding>{};
}

void CheckWorld(const datagen::WorldProfile& profile, uint64_t seed,
                int num_queries) {
  datagen::GeneratedWorld world = datagen::Generate(profile);
  const rdf::TripleStore& store = world.left;
  Vocab vocab = CollectVocab(store);
  ASSERT_FALSE(vocab.predicates.empty());
  ASSERT_FALSE(vocab.objects.empty());
  rdf::DatasetStats stats = rdf::ComputeStats(store);

  Rng rng(seed);
  for (int i = 0; i < num_queries; ++i) {
    GeneratedQuery generated = GenerateQuery(vocab, &rng);
    std::vector<Binding> oracle =
        RunPath(generated.text, store, Path::kOracle, nullptr);
    std::vector<Binding> greedy =
        RunPath(generated.text, store, Path::kGreedy, &stats);
    std::vector<Binding> planned =
        RunPath(generated.text, store, Path::kPlanned, nullptr);
    // Statistics only reorder joins; the result multiset is invariant.
    std::vector<Binding> planned_stats =
        RunPath(generated.text, store, Path::kPlanned, &stats);

    ASSERT_EQ(greedy.size(), oracle.size()) << generated.text;
    ASSERT_EQ(planned.size(), oracle.size()) << generated.text;
    ASSERT_EQ(planned_stats.size(), oracle.size()) << generated.text;
    if (generated.has_cut) {
      // A cut without a total order may legitimately keep different rows;
      // every path's picks must come from the same unlimited multiset.
      std::vector<Binding> unlimited = RunPath(
          generated.unlimited_text, store, Path::kOracle, nullptr);
      EXPECT_TRUE(MultisetContained(oracle, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(greedy, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(planned, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(planned_stats, unlimited))
          << generated.text;
    } else {
      std::sort(oracle.begin(), oracle.end());
      std::sort(greedy.begin(), greedy.end());
      std::sort(planned.begin(), planned.end());
      std::sort(planned_stats.begin(), planned_stats.end());
      EXPECT_EQ(greedy, oracle) << generated.text;
      EXPECT_EQ(planned, oracle) << generated.text;
      EXPECT_EQ(planned_stats, oracle) << generated.text;
    }
  }
}

TEST(DifferentialTest, EnginesAgreeOnTinyWorld) {
  CheckWorld(datagen::TinyTestProfile(), /*seed=*/7, /*num_queries=*/150);
}

TEST(DifferentialTest, EnginesAgreeOnNoisyWorld) {
  CheckWorld(NoisyWorldProfile(), /*seed=*/11, /*num_queries=*/120);
}

TEST(DifferentialTest, AskAgreesAcrossEngines) {
  datagen::GeneratedWorld world = datagen::Generate(datagen::TinyTestProfile());
  Vocab vocab = CollectVocab(world.left);
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    GeneratedQuery generated = GenerateQuery(vocab, &rng);
    // GROUP BY cannot follow ASK; reuse only plain WHERE clauses.
    if (generated.is_aggregate) continue;
    size_t where = generated.unlimited_text.find("WHERE");
    ASSERT_NE(where, std::string::npos);
    std::string ask_text = "ASK " + generated.unlimited_text.substr(where);
    Result<Query> query = ParseQuery(ask_text);
    ASSERT_TRUE(query.ok()) << ask_text << ": " << query.status().ToString();
    Result<std::vector<Binding>> oracle =
        OracleExecute(query.value(), world.left);
    Result<std::vector<Binding>> greedy =
        ExecuteGreedy(query.value(), world.left, nullptr);
    Result<bool> planned = Ask(query.value(), world.left);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(planned.ok());
    EXPECT_EQ(!greedy->empty(), !oracle->empty()) << ask_text;
    EXPECT_EQ(planned.value(), !oracle->empty()) << ask_text;
  }
}

// Every path is deterministic and shares nothing mutable across queries,
// so the same workload must produce bitwise-identical row vectors (values
// AND order) no matter how many threads execute it.
TEST(DifferentialTest, WorkloadBitwiseIdenticalAcrossThreadCounts) {
  datagen::GeneratedWorld world = datagen::Generate(datagen::TinyTestProfile());
  const rdf::TripleStore& store = world.left;
  (void)store.size();  // pre-build indexes: lazy build is not thread-safe
  Vocab vocab = CollectVocab(store);
  rdf::DatasetStats stats = rdf::ComputeStats(store);

  Rng rng(41);
  std::vector<GeneratedQuery> queries;
  for (int i = 0; i < 60; ++i) queries.push_back(GenerateQuery(vocab, &rng));

  for (Path path : {Path::kOracle, Path::kGreedy, Path::kPlanned}) {
    std::vector<std::vector<Binding>> baseline(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      baseline[i] = RunPath(queries[i].text, store, path, &stats);
    }
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      std::vector<std::vector<Binding>> got(queries.size());
      pool.ParallelFor(queries.size(), /*min_chunk=*/1,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           got[i] = RunPath(queries[i].text, store, path,
                                            &stats);
                         }
                       });
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(got[i], baseline[i])
            << queries[i].text << " (threads=" << threads << ")";
      }
    }
  }
}

// MIN/MAX over distinct integer literals has a unique extremum per group, so
// the oracle and both executor paths must decode the same winning term.
TEST(DifferentialTest, MinMaxAggregatesAgreeOnDistinctIntegers) {
  rdf::TripleStore store("minmax");
  const rdf::Term score = rdf::Term::Iri("http://x/score");
  const rdf::Term group = rdf::Term::Iri("http://x/group");
  int value = 1;
  for (int g = 0; g < 5; ++g) {
    const rdf::Term subject = rdf::Term::Iri("http://x/s" + std::to_string(g));
    const rdf::Term bucket =
        rdf::Term::StringLiteral("g" + std::to_string(g % 2));
    store.Add(subject, group, bucket);
    for (int k = 0; k < 4; ++k) {
      // Distinct values everywhere: no ties for MIN or MAX.
      store.Add(subject, score, rdf::Term::IntegerLiteral(value++));
    }
  }

  const std::string text =
      "SELECT ?g (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?total) "
      "(AVG(?v) AS ?mean) (COUNT(?v) AS ?n) WHERE { ?s <http://x/group> ?g . "
      "?s <http://x/score> ?v } GROUP BY ?g";
  std::vector<Binding> oracle = RunPath(text, store, Path::kOracle, nullptr);
  std::vector<Binding> greedy = RunPath(text, store, Path::kGreedy, nullptr);
  std::vector<Binding> planned =
      RunPath(text, store, Path::kPlanned, nullptr);
  ASSERT_EQ(oracle.size(), 2u);
  std::sort(oracle.begin(), oracle.end());
  std::sort(greedy.begin(), greedy.end());
  std::sort(planned.begin(), planned.end());
  EXPECT_EQ(greedy, oracle);
  EXPECT_EQ(planned, oracle);
}

}  // namespace
}  // namespace alex::sparql
