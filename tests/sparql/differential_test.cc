// Differential testing of the three query engines: the planned physical-
// operator executor (default) must agree with both oracles — the greedy
// compiled enumerator and the legacy term-space matcher — on randomized
// queries over generated worlds. Enumeration ORDER may differ between
// engines, so result multisets are compared canonically sorted; LIMIT
// without a total order is checked by size plus inclusion in the unlimited
// result. A separate test runs the same workload on 1 / 2 / 4 / 8 threads
// and requires bitwise-identical row vectors per query.
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

namespace alex::sparql {
namespace {

struct Vocab {
  std::vector<std::string> predicates;  // IRIs
  std::vector<std::string> subjects;    // IRIs
  std::vector<rdf::Term> objects;       // literals and IRIs
};

Vocab CollectVocab(const rdf::TripleStore& store) {
  Vocab vocab;
  const rdf::Dictionary& dict = store.dictionary();
  for (rdf::TermId p : store.Predicates()) {
    vocab.predicates.push_back(dict.term(p).lexical());
  }
  for (rdf::TermId s : store.Subjects()) {
    vocab.subjects.push_back(dict.term(s).lexical());
    if (vocab.subjects.size() >= 200) break;
  }
  for (const rdf::Triple& t :
       store.Match(std::nullopt, std::nullopt, std::nullopt)) {
    vocab.objects.push_back(dict.term(t.object));
    if (vocab.objects.size() >= 400) break;
  }
  return vocab;
}

std::string QuoteLiteral(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

std::string TermText(const rdf::Term& term) {
  return term.is_iri() ? "<" + term.lexical() + ">"
                       : QuoteLiteral(term.lexical());
}

// One randomized query: the full text plus a LIMIT/OFFSET-free variant used
// as the reference superset when the cut is not totally ordered.
struct GeneratedQuery {
  std::string text;
  std::string unlimited_text;
  bool has_cut = false;        // LIMIT and/or OFFSET present
  bool is_aggregate = false;   // GROUP BY + aggregate projections
};

GeneratedQuery GenerateQuery(const Vocab& vocab, Rng* rng) {
  const std::vector<std::string> vars = {"?a", "?b", "?c", "?d"};
  auto var = [&] { return vars[rng->NextBounded(vars.size())]; };
  auto predicate = [&] {
    return "<" + vocab.predicates[rng->NextBounded(vocab.predicates.size())] +
           ">";
  };
  auto node = [&]() -> std::string {
    switch (rng->NextBounded(4)) {
      case 0:
        return "<" + vocab.subjects[rng->NextBounded(vocab.subjects.size())] +
               ">";
      case 1:
        return TermText(vocab.objects[rng->NextBounded(vocab.objects.size())]);
      default:
        return var();
    }
  };
  auto pattern = [&] {
    // Subjects lean toward variables so patterns join; predicates are
    // occasionally variables to exercise POS-less scans.
    std::string s = rng->NextBounded(4) == 0 ? node() : var();
    std::string p = rng->NextBounded(8) == 0 ? var() : predicate();
    return s + " " + p + " " + node();
  };
  auto group = [&](size_t max_patterns) {
    std::string out = pattern();
    for (size_t i = rng->NextBounded(max_patterns); i > 0; --i) {
      out += " . " + pattern();
    }
    return out;
  };

  std::string where = "{ " + group(2) + " }";
  if (rng->NextBounded(4) == 0) {
    where = "{ " + where + " UNION { " + group(2) + " } }";
  }
  std::string body = where.substr(1, where.size() - 2);
  if (rng->NextBounded(3) == 0) {
    body += " OPTIONAL { " + group(1) + " }";
  }
  if (rng->NextBounded(3) == 0) {
    const std::string v = var();
    switch (rng->NextBounded(3)) {
      case 0:
        body += " FILTER(" + v + " != " +
                TermText(vocab.objects[rng->NextBounded(
                    vocab.objects.size())]) +
                ")";
        break;
      case 1:
        body += " FILTER(CONTAINS(" + v + ", \"a\"))";
        break;
      default:
        body += " FILTER(" + v + " = " + var() + ")";
    }
  }

  GeneratedQuery out;
  if (rng->NextBounded(5) == 0) {
    // Aggregation: GROUP BY one variable, COUNT another (COUNT is
    // enumeration-order-invariant; MIN/MAX tie-breaking is covered by the
    // deterministic literal test below).
    std::string key = var();
    std::string counted = var();
    std::string head = "SELECT " + key + " (COUNT(" + counted + ") AS ?n)";
    if (rng->NextBounded(2) == 0) head += " (COUNT(*) AS ?rows)";
    out.unlimited_text =
        head + " WHERE { " + body + " } GROUP BY " + key;
    out.text = out.unlimited_text;
    out.is_aggregate = true;
    return out;
  }

  std::string select = rng->NextBounded(4) == 0 ? "*" : var() + " " + var();
  std::string head = "SELECT ";
  if (rng->NextBounded(4) == 0) head += "DISTINCT ";
  out.unlimited_text = head + select + " WHERE { " + body + " }";
  out.text = out.unlimited_text;
  if (rng->NextBounded(3) == 0) {
    out.text += " ORDER BY " + var();
  }
  if (rng->NextBounded(3) == 0) {
    out.text += " LIMIT " + std::to_string(1 + rng->NextBounded(5));
    out.has_cut = true;
  }
  if (rng->NextBounded(6) == 0) {
    out.text += " OFFSET " + std::to_string(rng->NextBounded(3));
    out.has_cut = true;
  }
  return out;
}

std::vector<Binding> RunEngine(const std::string& text,
                               const rdf::TripleStore& store,
                               ExecutorKind engine,
                               const rdf::DatasetStats* stats) {
  Result<Query> query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  ExecuteOptions options;
  options.engine = engine;
  options.stats = stats;
  Result<std::vector<Binding>> rows =
      Execute(query.value(), store, options);
  EXPECT_TRUE(rows.ok()) << text << ": " << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Binding>{};
}

// `subset` must be contained in `superset` as a multiset.
bool MultisetContained(std::vector<Binding> subset,
                       std::vector<Binding> superset) {
  std::sort(subset.begin(), subset.end());
  std::sort(superset.begin(), superset.end());
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
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
    std::vector<Binding> legacy =
        RunEngine(generated.text, store, ExecutorKind::kLegacy, nullptr);
    std::vector<Binding> greedy =
        RunEngine(generated.text, store, ExecutorKind::kGreedy, &stats);
    std::vector<Binding> planned =
        RunEngine(generated.text, store, ExecutorKind::kPlanned, nullptr);
    // Statistics only reorder joins; the result multiset is invariant.
    std::vector<Binding> planned_stats =
        RunEngine(generated.text, store, ExecutorKind::kPlanned, &stats);

    ASSERT_EQ(greedy.size(), legacy.size()) << generated.text;
    ASSERT_EQ(planned.size(), legacy.size()) << generated.text;
    ASSERT_EQ(planned_stats.size(), legacy.size()) << generated.text;
    if (generated.has_cut) {
      // A cut without a total order may legitimately keep different rows;
      // every engine's picks must come from the same unlimited multiset.
      std::vector<Binding> unlimited = RunEngine(
          generated.unlimited_text, store, ExecutorKind::kLegacy, nullptr);
      EXPECT_TRUE(MultisetContained(legacy, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(greedy, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(planned, unlimited)) << generated.text;
      EXPECT_TRUE(MultisetContained(planned_stats, unlimited))
          << generated.text;
    } else {
      std::sort(legacy.begin(), legacy.end());
      std::sort(greedy.begin(), greedy.end());
      std::sort(planned.begin(), planned.end());
      std::sort(planned_stats.begin(), planned_stats.end());
      EXPECT_EQ(greedy, legacy) << generated.text;
      EXPECT_EQ(planned, legacy) << generated.text;
      EXPECT_EQ(planned_stats, legacy) << generated.text;
    }
  }
}

TEST(DifferentialTest, EnginesAgreeOnTinyWorld) {
  CheckWorld(datagen::TinyTestProfile(), /*seed=*/7, /*num_queries=*/150);
}

TEST(DifferentialTest, EnginesAgreeOnNoisyWorld) {
  datagen::WorldProfile profile = datagen::DbpediaNytimesProfile();
  profile.overlap_entities = 80;
  profile.left_only_entities = 40;
  profile.right_only_entities = 30;
  CheckWorld(profile, /*seed=*/11, /*num_queries=*/120);
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
    ExecuteOptions legacy_options;
    legacy_options.engine = ExecutorKind::kLegacy;
    Result<bool> legacy = Ask(query.value(), world.left, legacy_options);
    ExecuteOptions greedy_options;
    greedy_options.engine = ExecutorKind::kGreedy;
    Result<bool> greedy = Ask(query.value(), world.left, greedy_options);
    Result<bool> planned = Ask(query.value(), world.left);
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(planned.ok());
    EXPECT_EQ(greedy.value(), legacy.value()) << ask_text;
    EXPECT_EQ(planned.value(), legacy.value()) << ask_text;
  }
}

// Every engine is deterministic and shares nothing mutable across queries,
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

  const std::vector<ExecutorKind> engines = {
      ExecutorKind::kLegacy, ExecutorKind::kGreedy, ExecutorKind::kPlanned};
  for (ExecutorKind engine : engines) {
    std::vector<std::vector<Binding>> baseline(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      baseline[i] = RunEngine(queries[i].text, store, engine, &stats);
    }
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      std::vector<std::vector<Binding>> got(queries.size());
      pool.ParallelFor(queries.size(), /*min_chunk=*/1,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           got[i] = RunEngine(queries[i].text, store, engine,
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
// all three engines must decode the same winning term.
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
  std::vector<Binding> legacy =
      RunEngine(text, store, ExecutorKind::kLegacy, nullptr);
  std::vector<Binding> greedy =
      RunEngine(text, store, ExecutorKind::kGreedy, nullptr);
  std::vector<Binding> planned =
      RunEngine(text, store, ExecutorKind::kPlanned, nullptr);
  ASSERT_EQ(legacy.size(), 2u);
  std::sort(legacy.begin(), legacy.end());
  std::sort(greedy.begin(), greedy.end());
  std::sort(planned.begin(), planned.end());
  EXPECT_EQ(greedy, legacy);
  EXPECT_EQ(planned, legacy);
}

}  // namespace
}  // namespace alex::sparql
