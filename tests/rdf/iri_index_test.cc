#include "rdf/iri_index.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace alex::rdf {
namespace {

TEST(IriIndexTest, InternsDenseIdsInFirstSeenOrder) {
  IriIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find("http://a"), IriIndex::kNone);
  EXPECT_EQ(index.Intern("http://a"), 0u);
  EXPECT_EQ(index.Intern("http://b"), 1u);
  EXPECT_EQ(index.Intern("http://a"), 0u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find(std::string_view("http://b")), 1u);
  EXPECT_EQ(index.iri(0), "http://a");
  EXPECT_EQ(index.iri(1), "http://b");
}

TEST(IriIndexTest, TellsApartPrefixesEmptyAndHighBytes) {
  IriIndex index;
  const std::vector<std::string> iris = {
      "", "http://dbpedia.org/resource/Resource",
      "http://dbpedia.org/resource/Resource0",
      "http://dbpedia.org/resource/Resource\x80",
      "http://dbpedia.org/resource/Resource\xff",
      std::string("http://x/\0y", 11)};
  for (size_t i = 0; i < iris.size(); ++i) {
    EXPECT_EQ(index.Intern(iris[i]), i);
  }
  for (size_t i = 0; i < iris.size(); ++i) {
    EXPECT_EQ(index.Find(iris[i]), i) << i;
    EXPECT_EQ(index.iri(static_cast<uint32_t>(i)), iris[i]);
  }
  EXPECT_EQ(index.Find("http://dbpedia.org/resource/Resourc"),
            IriIndex::kNone);
  EXPECT_EQ(index.Find("http://x/"), IriIndex::kNone);
}

TEST(IriIndexTest, GrowsPastItsFirstTable) {
  IriIndex index;
  const uint32_t n = 5000;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.Intern("http://e/" + std::to_string(i)), i);
  }
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.Find("http://e/" + std::to_string(i)), i);
    ASSERT_EQ(index.iri(i), "http://e/" + std::to_string(i));
  }
  EXPECT_EQ(index.Find("http://e/5000"), IriIndex::kNone);
}

TEST(IriIndexTest, CopyStaysAnImmutableLookup) {
  IriIndex index;
  index.Intern("http://a");
  const IriIndex copy = index;
  // The original keeps interning into the shared storage; the copy's
  // strings never move and it does not see the new IRIs.
  for (int i = 0; i < 1000; ++i) index.Intern("http://n/" + std::to_string(i));
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.Find("http://a"), 0u);
  EXPECT_EQ(copy.iri(0), "http://a");
  EXPECT_EQ(copy.Find("http://n/0"), IriIndex::kNone);
  EXPECT_EQ(index.Find("http://n/999"), 1000u);
}

}  // namespace
}  // namespace alex::rdf
