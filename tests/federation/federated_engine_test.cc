#include "federation/federated_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "federation/link_set.h"
#include "federation/source_selection.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using linking::Link;
using rdf::Term;
using rdf::TripleStore;

// The paper's motivating example (§1): find New York Times articles about
// the NBA MVP of 2013. DBpedia knows who the MVP is; NYTimes has articles
// about people; an owl:sameAs link bridges the two representations of
// LeBron James.
class FederatedEngineTest : public ::testing::Test {
 protected:
  FederatedEngineTest() : dbpedia_("dbpedia"), nytimes_("nytimes") {
    dbpedia_.Add(Term::Iri("http://dbpedia.org/LeBron_James"),
                 Term::Iri("http://dbpedia.org/award"),
                 Term::StringLiteral("NBA MVP 2013"));
    dbpedia_.Add(Term::Iri("http://dbpedia.org/LeBron_James"),
                 Term::Iri("http://dbpedia.org/name"),
                 Term::StringLiteral("LeBron James"));
    dbpedia_.Add(Term::Iri("http://dbpedia.org/Kevin_Durant"),
                 Term::Iri("http://dbpedia.org/award"),
                 Term::StringLiteral("NBA MVP 2014"));

    nytimes_.Add(Term::Iri("http://nyt.com/article/1"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/lebron"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/2"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/lebron"));
    nytimes_.Add(Term::Iri("http://nyt.com/article/3"),
                 Term::Iri("http://nyt.com/about"),
                 Term::Iri("http://nyt.com/person/durant"));

    staged_.Stage(Link{"http://dbpedia.org/LeBron_James",
                       "http://nyt.com/person/lebron", 0.99},
                  true);
    links_ = staged_.Publish();
  }

  std::vector<FederatedAnswer> Run(const std::string& text) {
    FederatedEngine engine({&dbpedia_, &nytimes_}, links_.get());
    Result<FederatedResult> result = engine.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result.value().answers)
                       : std::vector<FederatedAnswer>{};
  }

  TripleStore dbpedia_;
  TripleStore nytimes_;
  StagedLinkSet staged_;
  std::shared_ptr<const LinkView> links_;  // the last published epoch
};

TEST_F(FederatedEngineTest, MotivatingExampleBridgesSameAs) {
  auto answers = Run(
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2013\" . "
      "?article <http://nyt.com/about> ?player }");
  ASSERT_EQ(answers.size(), 2u);
  for (const FederatedAnswer& answer : answers) {
    ASSERT_EQ(answer.links_used.size(), 1u);
    EXPECT_EQ(answer.links_used[0].left, "http://dbpedia.org/LeBron_James");
    EXPECT_EQ(answer.links_used[0].right, "http://nyt.com/person/lebron");
  }
}

TEST_F(FederatedEngineTest, NoLinkNoAnswer) {
  // Durant has no sameAs link, so his articles are unreachable.
  auto answers = Run(
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2014\" . "
      "?article <http://nyt.com/about> ?player }");
  EXPECT_TRUE(answers.empty());
}

TEST_F(FederatedEngineTest, LinkMutationIsVisible) {
  const Link durant{"http://dbpedia.org/Kevin_Durant",
                    "http://nyt.com/person/durant", 1.0};
  staged_.Stage(durant, true);
  links_ = staged_.Publish();
  auto answers = Run(
      "SELECT ?article WHERE { "
      "?player <http://dbpedia.org/award> \"NBA MVP 2014\" . "
      "?article <http://nyt.com/about> ?player }");
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].binding.at("article").lexical(),
            "http://nyt.com/article/3");

  staged_.Stage(durant, false);
  links_ = staged_.Publish();
  EXPECT_TRUE(Run("SELECT ?article WHERE { "
                  "?player <http://dbpedia.org/award> \"NBA MVP 2014\" . "
                  "?article <http://nyt.com/about> ?player }")
                  .empty());
}

TEST_F(FederatedEngineTest, SingleSourceAnswersHaveNoProvenance) {
  auto answers = Run(
      "SELECT ?p WHERE { ?p <http://dbpedia.org/award> \"NBA MVP 2013\" }");
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].links_used.empty());
}

TEST_F(FederatedEngineTest, BridgeWorksInBothDirections) {
  // Start from the NYTimes side and hop to DBpedia.
  auto answers = Run(
      "SELECT ?award WHERE { "
      "?article <http://nyt.com/about> ?person . "
      "?person <http://dbpedia.org/award> ?award }");
  ASSERT_EQ(answers.size(), 2u);
  for (const auto& a : answers) {
    EXPECT_EQ(a.binding.at("award").lexical(), "NBA MVP 2013");
  }
}

TEST_F(FederatedEngineTest, DistinctCollapsesDuplicates) {
  auto answers = Run(
      "SELECT DISTINCT ?award WHERE { "
      "?article <http://nyt.com/about> ?person . "
      "?person <http://dbpedia.org/award> ?award }");
  EXPECT_EQ(answers.size(), 1u);
}

TEST_F(FederatedEngineTest, FilterAppliesAcrossSources) {
  auto answers = Run(
      "SELECT ?article ?award WHERE { "
      "?player <http://dbpedia.org/award> ?award . "
      "?article <http://nyt.com/about> ?player . "
      "FILTER(CONTAINS(?award, \"2013\")) }");
  EXPECT_EQ(answers.size(), 2u);
}

TEST_F(FederatedEngineTest, ParseErrorPropagates) {
  FederatedEngine engine({&dbpedia_, &nytimes_}, links_.get());
  EXPECT_FALSE(engine.ExecuteText("SELECT bogus").ok());
}

// The rows of `text` from a one-source federation over `store` with no
// links, and from sparql::Execute over the same store, each sorted.
struct OneSourceRows {
  std::vector<sparql::Binding> federated;
  std::vector<sparql::Binding> executed;
};

OneSourceRows RunOneSource(const TripleStore& store, const std::string& text) {
  OneSourceRows rows;
  const LinkView no_links;
  FederatedEngine engine({&store}, &no_links);
  Result<FederatedResult> federated = engine.ExecuteText(text);
  EXPECT_TRUE(federated.ok()) << federated.status().ToString();
  if (federated.ok()) {
    for (const FederatedAnswer& answer : federated->answers) {
      rows.federated.push_back(answer.binding);
    }
  }
  Result<sparql::Query> query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (query.ok()) {
    Result<std::vector<sparql::Binding>> executed =
        sparql::Execute(*query, store);
    EXPECT_TRUE(executed.ok()) << executed.status().ToString();
    if (executed.ok()) rows.executed = std::move(executed).value();
  }
  std::sort(rows.federated.begin(), rows.federated.end());
  std::sort(rows.executed.begin(), rows.executed.end());
  return rows;
}

TEST(FederatedEvaluatorTest, RepeatedVariableBindsOneTerm) {
  // Only the self-loop matches ?x <p> ?x: both occurrences of ?x must hold
  // the same term.
  TripleStore store("loops");
  const Term p = Term::Iri("http://ex/p");
  store.Add(Term::Iri("http://ex/a"), p, Term::Iri("http://ex/a"));
  store.Add(Term::Iri("http://ex/a"), p, Term::Iri("http://ex/b"));
  store.Add(Term::Iri("http://ex/b"), p, Term::Iri("http://ex/c"));
  OneSourceRows rows =
      RunOneSource(store, "SELECT ?x WHERE { ?x <http://ex/p> ?x }");
  ASSERT_EQ(rows.federated.size(), 1u);
  EXPECT_EQ(rows.federated[0].at("x").lexical(), "http://ex/a");
  EXPECT_EQ(rows.federated, rows.executed);
}

TEST(FederatedEvaluatorTest, FilterWaitsForOptionalVariables) {
  // FILTER(?y != "foo") is checked once ?y is bound: it drops a's "foo"
  // extension (a stays, unextended), keeps b's "bar", and passes c, whose
  // OPTIONAL group does not match.
  TripleStore store("optional");
  const Term p = Term::Iri("http://ex/p");
  const Term q = Term::Iri("http://ex/q");
  store.Add(Term::Iri("http://ex/a"), p, Term::Iri("http://ex/z1"));
  store.Add(Term::Iri("http://ex/b"), p, Term::Iri("http://ex/z2"));
  store.Add(Term::Iri("http://ex/c"), p, Term::Iri("http://ex/z3"));
  store.Add(Term::Iri("http://ex/a"), q, Term::StringLiteral("foo"));
  store.Add(Term::Iri("http://ex/b"), q, Term::StringLiteral("bar"));
  OneSourceRows rows = RunOneSource(
      store,
      "SELECT ?x ?y WHERE { ?x <http://ex/p> ?z . "
      "OPTIONAL { ?x <http://ex/q> ?y } FILTER(?y != \"foo\") }");
  ASSERT_EQ(rows.federated.size(), 3u);
  EXPECT_EQ(rows.federated, rows.executed);
  const sparql::Binding b_bar = {{"x", Term::Iri("http://ex/b")},
                                 {"y", Term::StringLiteral("bar")}};
  EXPECT_NE(std::find(rows.federated.begin(), rows.federated.end(), b_bar),
            rows.federated.end());
}

TEST(SourceSelectionTest, PredicateExistenceFilters) {
  TripleStore a("a"), b("b");
  a.Add(Term::Iri("s"), Term::Iri("http://only-in-a"),
        Term::StringLiteral("v"));
  b.Add(Term::Iri("s"), Term::Iri("http://only-in-b"),
        Term::StringLiteral("v"));
  Result<sparql::Query> q = sparql::ParseQuery(
      "SELECT ?x WHERE { ?x <http://only-in-a> ?v . "
      "?x <http://only-in-b> ?w . ?x ?p ?o }");
  ASSERT_TRUE(q.ok());
  auto selected = SelectSources(q.value(), {&a, &b});
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0], (std::vector<size_t>{0}));
  EXPECT_EQ(selected[1], (std::vector<size_t>{1}));
  EXPECT_EQ(selected[2], (std::vector<size_t>{0, 1}));  // variable predicate
}

}  // namespace
}  // namespace alex::fed
