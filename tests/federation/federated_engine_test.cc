#include "federation/federated_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "federation/link_set.h"
#include "federation/source_selection.h"
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
