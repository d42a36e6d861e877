// Federated evaluation across more than two sources, plus the extended
// SPARQL constructs in the federated setting (UNION, ASK, ORDER BY).
#include <gtest/gtest.h>

#include <memory>

#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using linking::Link;
using rdf::Term;
using rdf::TripleStore;

class MultiSourceTest : public ::testing::Test {
 protected:
  MultiSourceTest()
      : kb_("kb"), news_("news"), reviews_("reviews") {
    kb_.Add(Term::Iri("http://kb/turing"), Term::Iri("http://kb/field"),
            Term::StringLiteral("computing"));
    kb_.Add(Term::Iri("http://kb/curie"), Term::Iri("http://kb/field"),
            Term::StringLiteral("physics"));

    news_.Add(Term::Iri("http://news/a1"), Term::Iri("http://news/about"),
              Term::Iri("http://news/p/turing"));
    news_.Add(Term::Iri("http://news/a2"), Term::Iri("http://news/about"),
              Term::Iri("http://news/p/curie"));

    reviews_.Add(Term::Iri("http://rev/r1"), Term::Iri("http://rev/of"),
                 Term::Iri("http://rev/person/turing"));
    reviews_.Add(Term::Iri("http://rev/r1"),
                 Term::Iri("http://rev/stars"), Term::IntegerLiteral(5));

    staged_.Stage(Link{"http://kb/turing", "http://news/p/turing", 1.0},
                  true);
    staged_.Stage(Link{"http://kb/curie", "http://news/p/curie", 1.0}, true);
    staged_.Stage(TuringReview(), true);
    links_ = staged_.Publish();
  }

  static Link TuringReview() {
    return Link{"http://kb/turing", "http://rev/person/turing", 1.0};
  }

  std::vector<FederatedAnswer> Run(const std::string& text) {
    FederatedEngine engine({&kb_, &news_, &reviews_}, links_.get());
    Result<FederatedResult> result = engine.ExecuteText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result.value().answers)
                       : std::vector<FederatedAnswer>{};
  }

  TripleStore kb_;
  TripleStore news_;
  TripleStore reviews_;
  StagedLinkSet staged_;
  std::shared_ptr<const LinkView> links_;  // the last published epoch
};

TEST_F(MultiSourceTest, ThreeWayJoinThroughTwoLinks) {
  auto answers = Run(
      "SELECT ?article ?stars WHERE { "
      "?p <http://kb/field> \"computing\" . "
      "?article <http://news/about> ?p . "
      "?review <http://rev/of> ?p . "
      "?review <http://rev/stars> ?stars }");
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].binding.at("stars").AsInteger(), 5);
  // Both bridging links appear in the provenance.
  EXPECT_EQ(answers[0].links_used.size(), 2u);
}

TEST_F(MultiSourceTest, UnionAcrossSources) {
  auto answers = Run(
      "SELECT ?x WHERE { "
      "{ ?x <http://news/about> ?p } UNION { ?x <http://rev/of> ?p } }");
  EXPECT_EQ(answers.size(), 3u);  // 2 articles + 1 review
}

TEST_F(MultiSourceTest, AskFederated) {
  FederatedEngine engine({&kb_, &news_, &reviews_}, links_.get());
  Result<sparql::Query> ask = sparql::ParseQuery(
      "ASK WHERE { ?p <http://kb/field> \"computing\" . "
      "?r <http://rev/of> ?p }");
  ASSERT_TRUE(ask.ok());
  Result<FederatedResult> answers = engine.Execute(ask.value());
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->complete);
  EXPECT_EQ(answers->answers.size(), 1u);  // stops after the first proof
}

TEST_F(MultiSourceTest, OrderByAppliesToAnswers) {
  auto answers = Run(
      "SELECT ?field WHERE { ?p <http://kb/field> ?field } "
      "ORDER BY DESC(?field)");
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].binding.at("field").lexical(), "physics");
  EXPECT_EQ(answers[1].binding.at("field").lexical(), "computing");
}

TEST_F(MultiSourceTest, OptionalLeftJoinsAcrossSources) {
  // Reviews exist only for Turing; Curie keeps her row without ?stars.
  auto answers = Run(
      "SELECT ?p ?stars WHERE { ?p <http://kb/field> ?f . "
      "OPTIONAL { ?r <http://rev/of> ?p . ?r <http://rev/stars> ?stars } }");
  ASSERT_EQ(answers.size(), 2u);
  int with_stars = 0;
  for (const FederatedAnswer& a : answers) {
    if (a.binding.count("stars") > 0) {
      ++with_stars;
      EXPECT_EQ(a.binding.at("p").lexical(), "http://kb/turing");
      // The optional hop used the kb->reviews link: provenance recorded.
      EXPECT_FALSE(a.links_used.empty());
    }
  }
  EXPECT_EQ(with_stars, 1);
}

TEST_F(MultiSourceTest, AggregatesRejectedFederated) {
  FederatedEngine engine({&kb_, &news_}, links_.get());
  Result<FederatedResult> answers = engine.ExecuteText(
      "SELECT (COUNT(*) AS ?n) WHERE { ?p <http://kb/field> ?f }");
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kUnimplemented);
}

TEST_F(MultiSourceTest, RemovedLinkBreaksOnlyItsPath) {
  staged_.Stage(TuringReview(), false);
  links_ = staged_.Publish();
  auto with_news = Run(
      "SELECT ?article WHERE { ?p <http://kb/field> \"computing\" . "
      "?article <http://news/about> ?p }");
  EXPECT_EQ(with_news.size(), 1u);  // news path still works
  auto with_reviews = Run(
      "SELECT ?review WHERE { ?p <http://kb/field> \"computing\" . "
      "?review <http://rev/of> ?p }");
  EXPECT_TRUE(with_reviews.empty());  // reviews path is now unreachable
}

}  // namespace
}  // namespace alex::fed
