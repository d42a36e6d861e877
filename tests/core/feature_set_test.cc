#include "core/feature_set.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/string_metrics.h"
#include "similarity/value_similarity.h"

namespace alex::core {
namespace {

using rdf::Term;
using rdf::TripleStore;

TEST(FeatureCatalogTest, InternIsIdempotent) {
  FeatureCatalog catalog;
  FeatureId a = catalog.Intern({"http://l/name", "http://r/label"});
  FeatureId b = catalog.Intern({"http://l/name", "http://r/label"});
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(FeatureCatalogTest, DirectionMatters) {
  FeatureCatalog catalog;
  FeatureId ab = catalog.Intern({"a", "b"});
  FeatureId ba = catalog.Intern({"b", "a"});
  EXPECT_NE(ab, ba);
}

TEST(FeatureCatalogTest, KeyRoundTrip) {
  FeatureCatalog catalog;
  FeatureId id = catalog.Intern({"left", "right"});
  FeatureKey key = catalog.Key(id);
  EXPECT_EQ(key.left_predicate, "left");
  EXPECT_EQ(key.right_predicate, "right");
}

TEST(FeatureCatalogTest, CanonicalizeSortsKeysAndReturnsPermutation) {
  FeatureCatalog catalog;
  FeatureId c = catalog.Intern({"c", "z"});
  FeatureId a = catalog.Intern({"a", "x"});
  FeatureId b = catalog.Intern({"b", "y"});
  std::vector<FeatureId> old_to_new = catalog.Canonicalize();
  ASSERT_EQ(old_to_new.size(), 3u);
  // After canonicalization ids follow (left, right) lexicographic order.
  EXPECT_EQ(old_to_new[a], 0u);
  EXPECT_EQ(old_to_new[b], 1u);
  EXPECT_EQ(old_to_new[c], 2u);
  EXPECT_EQ(catalog.Key(0).left_predicate, "a");
  EXPECT_EQ(catalog.Key(1).left_predicate, "b");
  EXPECT_EQ(catalog.Key(2).left_predicate, "c");
  EXPECT_EQ(catalog.Key(2).right_predicate, "z");
  // Interning an existing key resolves to its NEW id without growing.
  EXPECT_EQ(catalog.Intern({"c", "z"}), old_to_new[c]);
  EXPECT_EQ(catalog.size(), 3u);
}

TEST(FeatureCatalogTest, CanonicalizeMakesIdsInterningOrderIndependent) {
  // Two catalogs fed the same keys in different orders agree id-for-id
  // after canonicalization — the property Initialize relies on to make
  // FeatureIds independent of parallel build timing.
  std::vector<FeatureKey> keys = {
      {"p3", "q1"}, {"p1", "q2"}, {"p2", "q9"}, {"p1", "q1"}, {"p3", "q0"}};
  FeatureCatalog forward, backward;
  for (const FeatureKey& key : keys) forward.Intern(key);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    backward.Intern(*it);
  }
  forward.Canonicalize();
  backward.Canonicalize();
  ASSERT_EQ(forward.size(), backward.size());
  for (FeatureId id = 0; id < forward.size(); ++id) {
    EXPECT_EQ(forward.Key(id).left_predicate,
              backward.Key(id).left_predicate);
    EXPECT_EQ(forward.Key(id).right_predicate,
              backward.Key(id).right_predicate);
  }
  for (const FeatureKey& key : keys) {
    EXPECT_EQ(forward.Intern(key), backward.Intern(key));
  }
}

TEST(FeatureSetTest, GetAndSetMax) {
  FeatureSet set;
  set.SetMax(3, 0.5);
  set.SetMax(1, 0.7);
  set.SetMax(3, 0.4);  // lower: ignored
  set.SetMax(3, 0.9);  // higher: kept
  EXPECT_DOUBLE_EQ(set.Get(1), 0.7);
  EXPECT_DOUBLE_EQ(set.Get(3), 0.9);
  EXPECT_DOUBLE_EQ(set.Get(2), 0.0);
  EXPECT_EQ(set.size(), 2u);
  // Sorted by feature id.
  EXPECT_EQ(set.ids[0], 1u);
  EXPECT_EQ(set.ids[1], 3u);
  EXPECT_DOUBLE_EQ(set.scores[1], 0.9);
}

TEST(FeatureSetTest, ViewReadsTheParallelArrays) {
  FeatureSet set;
  set.SetMax(7, 0.25);
  set.SetMax(2, 0.5);
  const FeatureSetView view = set;
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.feature(0), 2u);
  EXPECT_DOUBLE_EQ(view.Get(7), 0.25);
  EXPECT_DOUBLE_EQ(view.Get(3), 0.0);
  std::vector<std::pair<FeatureId, double>> walked;
  for (const auto& [feature, score] : view) walked.emplace_back(feature, score);
  const std::vector<std::pair<FeatureId, double>> expected = {{2, 0.5},
                                                              {7, 0.25}};
  EXPECT_EQ(walked, expected);
  EXPECT_TRUE(FeatureSetView().empty());
}

TEST(PrepareValueTest, StringValue) {
  PreparedValue v = PrepareValue(Term::StringLiteral("LeBron  James"));
  EXPECT_FALSE(v.is_iri);
  EXPECT_EQ(v.lowered, "lebron  james");
  ASSERT_EQ(v.tokens.size(), 2u);
  EXPECT_EQ(v.tokens[0], "james");  // sorted
  EXPECT_EQ(v.tokens[1], "lebron");
}

TEST(PrepareValueTest, NumericString) {
  PreparedValue v = PrepareValue(Term::StringLiteral("1984"));
  EXPECT_TRUE(v.has_numeric);
  EXPECT_DOUBLE_EQ(v.numeric, 1984.0);
}

TEST(PrepareValueTest, IriUsesLocalName) {
  PreparedValue v = PrepareValue(Term::Iri("http://x/LeBron_James"));
  EXPECT_TRUE(v.is_iri);
  EXPECT_EQ(v.lowered, "lebron_james");
}

TEST(PrepareValueTest, DateDays) {
  PreparedValue v = PrepareValue(Term::DateLiteral("1970-01-02"));
  EXPECT_EQ(v.date_days, 1);
}

TEST(PreparedSimilarityTest, MatchesValueSimilaritySemantics) {
  struct Case {
    Term a, b;
  };
  std::vector<Case> cases = {
      {Term::StringLiteral("alpha beta"), Term::StringLiteral("beta alpha")},
      {Term::IntegerLiteral(100), Term::IntegerLiteral(101)},
      {Term::DateLiteral("2000-01-01"), Term::DateLiteral("2000-06-01")},
      {Term::StringLiteral("42"), Term::IntegerLiteral(42)},
      {Term::BooleanLiteral(true), Term::BooleanLiteral(false)},
      {Term::StringLiteral("same text here"),
       Term::StringLiteral("same text here")},
  };
  for (const Case& c : cases) {
    double fast = PreparedSimilarity(PrepareValue(c.a), PrepareValue(c.b));
    double slow = sim::ValueSimilarity(c.a, c.b);
    EXPECT_NEAR(fast, slow, 1e-9)
        << c.a.ToString() << " vs " << c.b.ToString();
  }
}

TEST(PreparedSimilarityTest, RandomStringsBelowTheta) {
  double s = PreparedSimilarity(PrepareValue(Term::StringLiteral("brouzit")),
                                PrepareValue(Term::StringLiteral("keldana")));
  EXPECT_LT(s, 0.3);
}

class FeatureSetBuilderTest : public ::testing::Test {
 protected:
  FeatureSetBuilderTest() : left_("l"), right_("r") {}

  PreparedEntity MakeLeft(
      const std::vector<std::pair<std::string, Term>>& attrs) {
    Term subject = Term::Iri("http://l/e");
    for (const auto& [pred, obj] : attrs) {
      left_.Add(subject, Term::Iri(pred), obj);
    }
    return PrepareEntity(left_, *left_.dictionary().Lookup(subject));
  }
  PreparedEntity MakeRight(
      const std::vector<std::pair<std::string, Term>>& attrs) {
    Term subject = Term::Iri("http://r/x");
    for (const auto& [pred, obj] : attrs) {
      right_.Add(subject, Term::Iri(pred), obj);
    }
    return PrepareEntity(right_, *right_.dictionary().Lookup(subject));
  }

  TripleStore left_;
  TripleStore right_;
  FeatureCatalog catalog_;
};

TEST_F(FeatureSetBuilderTest, PairsUpMatchingAttributes) {
  PreparedEntity l = MakeLeft({{"http://l/name",
                                Term::StringLiteral("Marie Curie")},
                               {"http://l/born", Term::IntegerLiteral(1867)}});
  PreparedEntity r = MakeRight(
      {{"http://r/label", Term::StringLiteral("Marie Curie")},
       {"http://r/birthYear", Term::IntegerLiteral(1867)}});
  FeatureSet set;
  BuildFeatureSet(l, r, &catalog_, 0.3, &set);
  EXPECT_EQ(set.size(), 2u);
  FeatureId name = catalog_.Intern({"http://l/name", "http://r/label"});
  FeatureId year = catalog_.Intern({"http://l/born", "http://r/birthYear"});
  EXPECT_DOUBLE_EQ(set.Get(name), 1.0);
  EXPECT_DOUBLE_EQ(set.Get(year), 1.0);
}

TEST_F(FeatureSetBuilderTest, ThetaFiltersWeakFeatures) {
  PreparedEntity l = MakeLeft({{"http://l/name",
                                Term::StringLiteral("xyzzy plugh")}});
  PreparedEntity r = MakeRight(
      {{"http://r/label", Term::StringLiteral("unrelated words")}});
  FeatureSet set;
  BuildFeatureSet(l, r, &catalog_, 0.3, &set);
  EXPECT_TRUE(set.empty());
}

TEST_F(FeatureSetBuilderTest, EmptyEntityYieldsEmptySet) {
  PreparedEntity l = MakeLeft({{"http://l/name",
                                Term::StringLiteral("a")}});
  PreparedEntity empty;
  FeatureSet set;
  BuildFeatureSet(l, empty, &catalog_, 0.3, &set);
  EXPECT_TRUE(set.empty());
}

TEST_F(FeatureSetBuilderTest, RowMaximaWhenLeftLarger) {
  // Left has 2 attributes, right has 1: one feature per left attribute that
  // clears θ against the single right attribute.
  PreparedEntity l =
      MakeLeft({{"http://l/name", Term::StringLiteral("alpha")},
                {"http://l/alias", Term::StringLiteral("alpha")}});
  PreparedEntity r =
      MakeRight({{"http://r/label", Term::StringLiteral("alpha")}});
  FeatureSet set;
  BuildFeatureSet(l, r, &catalog_, 0.3, &set);
  EXPECT_EQ(set.size(), 2u);
}

TEST_F(FeatureSetBuilderTest, ColumnMaximaWhenRightLarger) {
  PreparedEntity l =
      MakeLeft({{"http://l/name", Term::StringLiteral("alpha")}});
  PreparedEntity r =
      MakeRight({{"http://r/label", Term::StringLiteral("alpha")},
                 {"http://r/alias", Term::StringLiteral("alpha")}});
  FeatureSet set;
  BuildFeatureSet(l, r, &catalog_, 0.3, &set);
  EXPECT_EQ(set.size(), 2u);
}

TEST_F(FeatureSetBuilderTest, DuplicateFeatureKeyKeepsMax) {
  // Two left attributes with the same predicate, both matching the same
  // right attribute at different scores: one feature with the max.
  PreparedEntity l =
      MakeLeft({{"http://l/name", Term::StringLiteral("alpha beta")},
                {"http://l/name", Term::StringLiteral("alpha")}});
  PreparedEntity r =
      MakeRight({{"http://r/label", Term::StringLiteral("alpha")}});
  FeatureSet set;
  BuildFeatureSet(l, r, &catalog_, 0.3, &set);
  FeatureId id = catalog_.Intern({"http://l/name", "http://r/label"});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.Get(id), 1.0);
}

TEST_F(FeatureSetBuilderTest, MemoOverloadMatchesCatalogOverload) {
  PreparedEntity l =
      MakeLeft({{"http://l/name", Term::StringLiteral("alpha beta")},
                {"http://l/born", Term::IntegerLiteral(1912)}});
  PreparedEntity r =
      MakeRight({{"http://r/label", Term::StringLiteral("alpha betta")},
                 {"http://r/birthYear", Term::IntegerLiteral(1912)}});
  FeatureSet direct;
  BuildFeatureSet(l, r, &catalog_, 0.3, &direct);
  CatalogMemo memo(&catalog_);
  FeatureSet memoized;
  BuildFeatureSet(l, r, &memo, 0.3, &memoized);
  ASSERT_EQ(direct.size(), memoized.size());
  EXPECT_EQ(direct.ids, memoized.ids);
  EXPECT_EQ(direct.scores, memoized.scores);
}

std::string RandomString(Rng* rng, size_t max_length) {
  // A 3-letter alphabet makes small distances (and ties) common.
  std::string s;
  size_t length = rng->NextBounded(max_length + 1);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>('a' + rng->NextBounded(3)));
  }
  return s;
}

// A pair of strings of up to 150 bytes, on both sides of the kernel's 64-bit
// word, over an alphabet with bytes 0x80-0xff, which are negative as a
// signed char. Half the pairs are a string and a copy with a few edits, so
// that similarities near every cutoff occur.
std::pair<std::string, std::string> RandomLongPair(Rng* rng) {
  const char kAlphabet[] = {'a', 'b', '\x80', '\xc3', '\xff'};
  auto random_string = [&] {
    std::string s(rng->NextBounded(151), 'a');
    for (char& c : s) c = kAlphabet[rng->NextBounded(sizeof(kAlphabet))];
    return s;
  };
  std::string a = random_string();
  if (rng->NextBounded(2) == 0) return {a, random_string()};
  std::string b = a;
  const int edits = static_cast<int>(rng->NextBounded(12));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBounded(b.size() + 1);
    const char c = kAlphabet[rng->NextBounded(sizeof(kAlphabet))];
    if (pos == b.size() || rng->NextBounded(3) == 0) {
      b.insert(b.begin() + pos, c);
    } else if (rng->NextBounded(2) == 0) {
      b.erase(pos, 1);
    } else {
      b[pos] = c;
    }
  }
  return {a, b};
}

// Short pairs over {a, b, c}, then long pairs with high bytes.
std::vector<std::pair<std::string, std::string>> KernelInputs(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> inputs;
  for (int i = 0; i < 500; ++i) {
    std::string a = RandomString(&rng, 12);
    inputs.emplace_back(a, RandomString(&rng, 12));
  }
  for (int i = 0; i < 300; ++i) inputs.push_back(RandomLongPair(&rng));
  return inputs;
}

TEST(FastLevenshteinTest, ExactWithoutCutoff) {
  const std::string word(64, 'a');
  const std::pair<std::string, std::string> kCases[] = {
      {"", ""},           {"", "abc"},        {"abc", ""},
      {"abc", "abc"},     {"kitten", "sitting"}, {"smith", "smyth"},
      {"cuglia", "hugia"}, {"a", "b"},        {"ab", "ba"},
      {word, word},       {word, word + "a"}, {word + "b", "b" + word},
      {word + word + "\xff", "\xff" + word + word},
  };
  for (const auto& [a, b] : kCases) {
    EXPECT_DOUBLE_EQ(FastNormalizedLevenshtein(a, b),
                     sim::NormalizedLevenshtein(a, b))
        << "'" << a << "' vs '" << b << "'";
  }
  for (const auto& [a, b] : KernelInputs(1234)) {
    EXPECT_DOUBLE_EQ(FastNormalizedLevenshtein(a, b),
                     sim::NormalizedLevenshtein(a, b))
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(FastLevenshteinTest, CutoffContractExactAboveUnderestimateBelow) {
  // Contract: with a cutoff, the result is exact whenever the true
  // similarity is >= the cutoff; otherwise it may be any value below the
  // cutoff (the caller only learns "not interesting").
  const double kCutoffs[] = {0.3, 0.5, 0.58, 0.7, 0.9};
  for (const auto& [a, b] : KernelInputs(99)) {
    double exact = sim::NormalizedLevenshtein(a, b);
    for (double cutoff : kCutoffs) {
      double fast = FastNormalizedLevenshtein(a, b, cutoff);
      if (exact >= cutoff) {
        EXPECT_DOUBLE_EQ(fast, exact)
            << "'" << a << "' vs '" << b << "' cutoff " << cutoff;
      } else {
        EXPECT_LT(fast, cutoff)
            << "'" << a << "' vs '" << b << "' cutoff " << cutoff;
        EXPECT_GE(fast, 0.0);
      }
    }
  }
}

TEST(FastLevenshteinTest, LengthDifferenceEarlyExit) {
  // |10 - 2| = 8 edits minimum; with cutoff 0.5 the kernel is skipped
  // entirely but the result must still be below the cutoff and sane.
  double fast = FastNormalizedLevenshtein("ab", "abcdefghij", 0.5);
  EXPECT_LT(fast, 0.5);
  EXPECT_GE(fast, 0.0);
  // Without a cutoff the same pair is computed exactly.
  EXPECT_DOUBLE_EQ(FastNormalizedLevenshtein("ab", "abcdefghij"),
                   sim::NormalizedLevenshtein("ab", "abcdefghij"));
}

TEST(SortedTokenJaccardTest, MergeWalkEdges) {
  using Tokens = std::vector<std::string>;
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{}, Tokens{}), 1.0);
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a"}, Tokens{}), 0.0);
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{}, Tokens{"a"}), 0.0);
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a", "b"}, Tokens{"a", "b"}),
                   1.0);
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a", "b"}, Tokens{"c", "d"}),
                   0.0);
  // 2 shared of 4 distinct.
  EXPECT_DOUBLE_EQ(
      SortedTokenJaccard(Tokens{"a", "b", "c"}, Tokens{"b", "c", "d"}), 0.5);
  // Prefix tokens are not equal tokens.
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a"}, Tokens{"ab"}), 0.0);
  // Trailing-run handling on both sides of the walk.
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a"}, Tokens{"a", "b", "c"}),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(SortedTokenJaccard(Tokens{"a", "b", "c"}, Tokens{"c"}),
                   1.0 / 3.0);
}

TEST(PrepareEntityTest, MaxAttributesCap) {
  TripleStore store("t");
  Term subject = Term::Iri("s");
  for (int i = 0; i < 20; ++i) {
    store.Add(subject, Term::Iri("p" + std::to_string(i)),
              Term::IntegerLiteral(i));
  }
  PreparedEntity capped =
      PrepareEntity(store, *store.dictionary().Lookup(subject), 5);
  EXPECT_EQ(capped.attributes.size(), 5u);
  PreparedEntity full =
      PrepareEntity(store, *store.dictionary().Lookup(subject), 0);
  EXPECT_EQ(full.attributes.size(), 20u);
}

}  // namespace
}  // namespace alex::core
