// Differential test of the federated evaluator against the SPARQL layer's
// term-space oracle (tests/sparql/term_oracle.h). A federation of one
// source over an empty link view bridges nothing, so on every query of the
// SPARQL differential generator that it accepts (all but GROUP BY, which
// federated queries reject) it must return the oracle's rows, on both of
// the generator's worlds. Row multisets are compared canonically sorted; a
// LIMIT / OFFSET without a total order is checked by size plus inclusion in
// the oracle's unlimited rows.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/query_generator.h"
#include "sparql/term_oracle.h"

namespace alex::fed {
namespace {

using sparql::Binding;

std::vector<Binding> OracleRows(const std::string& text,
                                const rdf::TripleStore& store) {
  Result<sparql::Query> query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  if (!query.ok()) return {};
  Result<std::vector<Binding>> rows = sparql::OracleExecute(*query, store);
  EXPECT_TRUE(rows.ok()) << text << ": " << rows.status().ToString();
  return rows.ok() ? std::move(rows).value() : std::vector<Binding>{};
}

std::vector<Binding> FederatedRows(const FederatedEngine& engine,
                                   const std::string& text,
                                   const FederatedOptions& options) {
  Result<FederatedResult> result = engine.ExecuteText(text, options);
  EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_TRUE(result->complete) << text;
  std::vector<Binding> rows;
  for (const FederatedAnswer& answer : result->answers) {
    EXPECT_TRUE(answer.links_used.empty()) << text;
    rows.push_back(answer.binding);
  }
  return rows;
}

// Runs the first `num_queries` queries of the generator stream `seed` over
// `profile`'s left store; returns how many were compared.
int CheckWorld(const datagen::WorldProfile& profile, uint64_t seed,
               int num_queries) {
  datagen::GeneratedWorld world = datagen::Generate(profile);
  const rdf::TripleStore& store = world.left;
  const sparql::Vocab vocab = sparql::CollectVocab(store);
  const LinkView no_links;
  FederatedEngine engine({&store}, &no_links);
  FederatedOptions options;
  options.max_rows = sparql::ExecuteOptions{}.max_rows;

  Rng rng(seed);
  int compared = 0;
  for (int i = 0; i < num_queries; ++i) {
    const sparql::GeneratedQuery generated =
        sparql::GenerateQuery(vocab, &rng);
    if (generated.is_aggregate) continue;
    std::vector<Binding> federated =
        FederatedRows(engine, generated.text, options);
    std::vector<Binding> oracle = OracleRows(generated.text, store);
    ++compared;
    EXPECT_EQ(federated.size(), oracle.size()) << generated.text;
    if (generated.has_cut) {
      EXPECT_TRUE(sparql::MultisetContained(
          federated, OracleRows(generated.unlimited_text, store)))
          << generated.text;
    } else {
      std::sort(federated.begin(), federated.end());
      std::sort(oracle.begin(), oracle.end());
      EXPECT_EQ(federated, oracle) << generated.text;
    }
  }
  return compared;
}

// The query streams of DifferentialTest.EnginesAgreeOnTinyWorld and
// DifferentialTest.EnginesAgreeOnNoisyWorld, without their GROUP BY
// queries.
TEST(FederatedDifferentialTest, OneSourceMatchesOracleOnTinyWorld) {
  EXPECT_EQ(CheckWorld(datagen::TinyTestProfile(), /*seed=*/7,
                       /*num_queries=*/150),
            122);
}

TEST(FederatedDifferentialTest, OneSourceMatchesOracleOnNoisyWorld) {
  EXPECT_EQ(CheckWorld(sparql::NoisyWorldProfile(), /*seed=*/11,
                       /*num_queries=*/120),
            97);
}

}  // namespace
}  // namespace alex::fed
