#include "similarity/value_similarity.h"

#include <gtest/gtest.h>

#include <ostream>

namespace alex::rdf {

// Prints a term parameter as text; gtest would otherwise dump its bytes,
// which hold a heap address and padding, into the test's name.
void PrintTo(const Term& term, std::ostream* os) { *os << term.ToString(); }

}  // namespace alex::rdf

namespace alex::sim {
namespace {

using rdf::Term;

TEST(NumericSimilarityTest, EqualValues) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(5.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 0.0), 1.0);
}

TEST(NumericSimilarityTest, ToleranceCutsOff) {
  // rel = 0.2 with tolerance 0.1 -> 0.
  EXPECT_DOUBLE_EQ(NumericSimilarity(100.0, 80.0, 0.1), 0.0);
  // rel = 0.05 with tolerance 0.1 -> 0.5.
  EXPECT_NEAR(NumericSimilarity(100.0, 95.0, 0.1), 0.5, 1e-9);
}

TEST(NumericSimilarityTest, SmallMagnitudesUseUnitDenominator) {
  // denom = max(|a|,|b|,1) = 1.
  EXPECT_NEAR(NumericSimilarity(0.0, 0.05, 0.1), 0.5, 1e-9);
}

TEST(NumericSimilarityTest, Symmetric) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(3.0, 4.0), NumericSimilarity(4.0, 3.0));
}

TEST(DateSimilarityTest, SameDay) {
  EXPECT_DOUBLE_EQ(DateSimilarity(100, 100, 1200.0), 1.0);
}

TEST(DateSimilarityTest, LinearDecay) {
  EXPECT_NEAR(DateSimilarity(0, 600, 1200.0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(DateSimilarity(0, 1300, 1200.0), 0.0);
}

TEST(IriLocalNameTest, Extraction) {
  EXPECT_EQ(IriLocalName("http://x/a/b#frag"), "frag");
  EXPECT_EQ(IriLocalName("http://x/a/b"), "b");
  EXPECT_EQ(IriLocalName("no-separators"), "no-separators");
  EXPECT_EQ(IriLocalName("http://x/trailing/"), "http://x/trailing/");
}

TEST(RescaleTest, FloorBehaviour) {
  EXPECT_DOUBLE_EQ(RescaleAboveFloor(0.3, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(RescaleAboveFloor(0.4, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(RescaleAboveFloor(1.0, 0.4), 1.0);
  EXPECT_NEAR(RescaleAboveFloor(0.7, 0.4), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(RescaleAboveFloor(0.25, 0.0), 0.25);
}

TEST(ValueSimilarityTest, IdenticalIris) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Term::Iri("http://x/a"), Term::Iri("http://x/a")), 1.0);
}

TEST(ValueSimilarityTest, IrisWithSameLocalName) {
  double s = ValueSimilarity(Term::Iri("http://left/Nadal"),
                             Term::Iri("http://right/Nadal"));
  EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(ValueSimilarityTest, NumericLiterals) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::IntegerLiteral(10),
                                   Term::IntegerLiteral(10)),
                   1.0);
  EXPECT_GT(ValueSimilarity(Term::IntegerLiteral(1000),
                            Term::DoubleLiteral(1001.0)),
            0.9);
}

TEST(ValueSimilarityTest, MixedNumericAndStringParsesNumbers) {
  double s = ValueSimilarity(Term::StringLiteral("1984"),
                             Term::IntegerLiteral(1984));
  EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(ValueSimilarityTest, DateLiterals) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::DateLiteral("1984-12-30"),
                                   Term::DateLiteral("1984-12-30")),
                   1.0);
  EXPECT_GT(ValueSimilarity(Term::DateLiteral("1984-12-30"),
                            Term::DateLiteral("1985-01-05")),
            0.9);
}

TEST(ValueSimilarityTest, DateVsStringOnlyExactLexical) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::DateLiteral("1984-12-30"),
                                   Term::StringLiteral("1984-12-30")),
                   1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::DateLiteral("1984-12-30"),
                                   Term::StringLiteral("1984-12-31")),
                   0.0);
}

TEST(ValueSimilarityTest, Booleans) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::BooleanLiteral(true),
                                   Term::BooleanLiteral(true)),
                   1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::BooleanLiteral(true),
                                   Term::BooleanLiteral(false)),
                   0.0);
}

TEST(ValueSimilarityTest, StringsCaseInsensitive) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::StringLiteral("LeBron James"),
                                   Term::StringLiteral("lebron james")),
                   1.0);
}

TEST(ValueSimilarityTest, RandomStringsScoreLow) {
  // The calibrated floor keeps unrelated strings below the θ=0.3 filter.
  double s = ValueSimilarity(Term::StringLiteral("katrouna velize"),
                             Term::StringLiteral("bromid stozzu"));
  EXPECT_LT(s, 0.3);
}

TEST(ValueSimilarityTest, IriVsLiteralComparesLocalName) {
  double s = ValueSimilarity(Term::Iri("http://x/LeBron_James"),
                             Term::StringLiteral("LeBron_James"));
  EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(ValueSimilarityTest, BlankNodesScoreZero) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Term::Blank("a"), Term::Blank("a")), 0.0);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Term::Blank("a"), Term::StringLiteral("a")), 0.0);
}

// Property sweep: range and symmetry over heterogeneous term pairs.
class ValueSimilarityPropertyTest
    : public ::testing::TestWithParam<std::pair<Term, Term>> {};

TEST_P(ValueSimilarityPropertyTest, RangeAndSymmetry) {
  const auto& [a, b] = GetParam();
  double ab = ValueSimilarity(a, b);
  double ba = ValueSimilarity(b, a);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_DOUBLE_EQ(ab, ba);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ValueSimilarityPropertyTest,
    ::testing::Values(
        std::make_pair(Term::Iri("http://a/x"), Term::Iri("http://b/y")),
        std::make_pair(Term::StringLiteral("alpha"), Term::Iri("http://b/y")),
        std::make_pair(Term::IntegerLiteral(3), Term::DoubleLiteral(3.5)),
        std::make_pair(Term::DateLiteral("2000-01-01"),
                       Term::DateLiteral("2001-01-01")),
        std::make_pair(Term::StringLiteral("42"), Term::IntegerLiteral(41)),
        std::make_pair(Term::BooleanLiteral(true),
                       Term::StringLiteral("true")),
        std::make_pair(Term::Blank("b"), Term::IntegerLiteral(0)),
        std::make_pair(Term::StringLiteral(""), Term::StringLiteral("x"))));

}  // namespace
}  // namespace alex::sim
