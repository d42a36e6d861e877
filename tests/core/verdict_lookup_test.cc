// Differential test of AlexEngine::ApplyLinkFeedback's verdict lookup: for
// every link of a tiny world, the engine must give the same outcome and
// leave the same candidates as the string-keyed lookup it replaced — a map
// from left IRI to partition, then FeatureSpace::FindPair, and a linear
// scan of the spaceless extras for a negative verdict on a non-candidate.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/alex_engine.h"

namespace alex::core {
namespace {

using linking::Link;
using rdf::Term;

std::string LeftIri(int i) { return "http://l/e" + std::to_string(i); }
std::string RightIri(int i) { return "http://r/x" + std::to_string(i); }

// Entity i of both sides is named kNames[i]; equal names put a cross pair
// at score 1.0, unrelated ones leave it outside every space.
const char* const kNames[] = {"Alpha Beta", "Alpha Beta",  "Gamma Delta",
                              "Gamma Delta", "Qwerty Uiop", "Zzyzx",
                              "Alpha Beta", "Gamma Delta"};

// The reference: the lookup ApplyLinkFeedback made on IRI strings.
class ReferenceLookup {
 public:
  explicit ReferenceLookup(const AlexEngine& engine) {
    const std::vector<PartitionAlex>& partitions = engine.partitions();
    for (uint32_t p = 0; p < partitions.size(); ++p) {
      for (const PreparedEntity& entity :
           partitions[p].space().left_entities()) {
        by_left_iri_.emplace(entity.iri, p);
      }
    }
  }

  // The (partition, pair) of a link; false if outside every space.
  bool FindPartitionPair(const AlexEngine& engine, const Link& link,
                         uint32_t* partition, PairId* pair) const {
    auto it = by_left_iri_.find(link.left);
    if (it == by_left_iri_.end()) return false;
    *partition = it->second;
    *pair = engine.partitions()[*partition].space().FindPair(link.left,
                                                             link.right);
    return *pair != kInvalidPairId;
  }

 private:
  std::unordered_map<std::string, uint32_t> by_left_iri_;
};

bool SameOutcome(const PartitionAlex::FeedbackOutcome& a,
                 const PartitionAlex::FeedbackOutcome& b) {
  return a.added == b.added && a.removed == b.removed &&
         a.rollbacks == b.rollbacks &&
         a.rolled_back_links == b.rolled_back_links;
}

class VerdictLookupTest : public ::testing::Test {
 protected:
  VerdictLookupTest() : left_("l"), right_("r") {}

  void AddEntity(int i) {
    left_.Add(Term::Iri(LeftIri(i)), Term::Iri("http://l/name"),
              Term::StringLiteral(kNames[i]));
    right_.Add(Term::Iri(RightIri(i)), Term::Iri("http://r/label"),
               Term::StringLiteral(kNames[i]));
  }

  static AlexOptions Options() {
    AlexOptions options;
    options.num_partitions = 2;
    options.num_threads = 1;
    options.seed = 7;
    return options;
  }

  // Applies one verdict to `engine`, and to `twin` as the reference would
  // have: the two must agree on the outcome and on the candidates, in
  // CandidateLinks() order.
  static void Check(AlexEngine* engine, AlexEngine* twin,
                    const ReferenceLookup& lookup, const Link& link,
                    bool positive) {
    const std::vector<Link> before = engine->CandidateLinks();
    ASSERT_EQ(before, twin->CandidateLinks());
    PartitionAlex::FeedbackOutcome expected;
    std::vector<Link> expected_links = before;
    bool extra_removed = false;
    uint32_t partition = 0;
    PairId pair = kInvalidPairId;
    if (lookup.FindPartitionPair(*twin, link, &partition, &pair) &&
        twin->partitions()[partition].candidates().Contains(pair)) {
      expected =
          twin->mutable_partitions()[partition].ProcessFeedback(pair,
                                                                positive);
      expected_links = twin->CandidateLinks();
    } else if (!positive) {
      // The extras close CandidateLinks() in items() order. The scan
      // removes the first equal one, and CandidateSet::Remove moves the
      // last member into its slot.
      size_t first_extra = 0;
      for (const PartitionAlex& p : twin->partitions()) {
        first_extra += p.candidates().size();
      }
      for (size_t k = first_extra; k < expected_links.size(); ++k) {
        if (expected_links[k] == link) {
          expected.removed = true;
          expected_links[k] = expected_links.back();
          expected_links.pop_back();
          extra_removed = true;
          break;
        }
      }
    }
    const PartitionAlex::FeedbackOutcome actual =
        engine->ApplyLinkFeedback(link, positive);
    const std::string where =
        link.left + " " + link.right + (positive ? " +" : " -");
    EXPECT_TRUE(SameOutcome(actual, expected)) << where;
    EXPECT_EQ(engine->CandidateLinks(), expected_links) << where;
    // The twin can drop an extra only this way; the engine's result above
    // checked the removal.
    if (extra_removed) twin->ApplyLinkFeedback(link, false);
  }

  rdf::TripleStore left_;
  rdf::TripleStore right_;
};

TEST_F(VerdictLookupTest, EveryLinkMatchesTheStringKeyedReference) {
  for (int i = 0; i < 6; ++i) AddEntity(i);
  const Link ghost{"http://l/ghost", "http://r/ghost", 1.0};
  const std::vector<Link> initial = {
      {LeftIri(0), RightIri(0), 1.0}, {LeftIri(2), RightIri(3), 1.0}, ghost};
  AlexEngine engine(&left_, &right_, Options());
  AlexEngine twin(&left_, &right_, Options());
  ASSERT_TRUE(engine.Initialize(initial).ok());
  ASSERT_TRUE(twin.Initialize(initial).ok());

  // A pair of known entities outside every space.
  Link outside;
  {
    const ReferenceLookup lookup(twin);
    uint32_t partition = 0;
    PairId pair = kInvalidPairId;
    for (int l = 0; l < 6 && outside.left.empty(); ++l) {
      for (int r = 0; r < 6; ++r) {
        const Link link{LeftIri(l), RightIri(r), 1.0};
        if (!lookup.FindPartitionPair(twin, link, &partition, &pair)) {
          outside = link;
          break;
        }
      }
    }
  }
  ASSERT_FALSE(outside.left.empty());

  // Extras, in this order: an unknown right IRI, `ghost` and `outside`
  // seeded twice, and (e6, x1), outside every space until IngestTriples
  // adds e6 below.
  const Link unknown_right{LeftIri(1), "http://r/ghost", 1.0};
  const std::vector<Link> seeds = {{LeftIri(0), RightIri(0), 1.0},
                                   unknown_right,
                                   ghost,
                                   {LeftIri(2), RightIri(2), 1.0},
                                   outside,
                                   {LeftIri(6), RightIri(1), 1.0},
                                   outside,
                                   {LeftIri(1), RightIri(1), 1.0},
                                   ghost};
  engine.ReplaceCandidates(seeds);
  twin.ReplaceCandidates(seeds);
  // New lefts (and rights) join the lookup; (e6, x1) is now in a space but
  // still a spaceless candidate.
  AddEntity(6);
  AddEntity(7);
  ASSERT_TRUE(engine.IngestTriples().ok());
  ASSERT_TRUE(twin.IngestTriples().ok());

  // Every left IRI (the world's, a ghost, and e8, which never exists)
  // against every right IRI of the same kinds.
  std::vector<Link> links;
  for (int l = -1; l <= 8; ++l) {
    for (int r = -1; r <= 8; ++r) {
      links.push_back(Link{l < 0 ? ghost.left : LeftIri(l),
                           r < 0 ? ghost.right : RightIri(r), 1.0});
    }
  }
  {
    // Dropping the first extra moves the last one, the second copy of
    // `ghost`, in front of the first copy: a negative verdict on `ghost`
    // must drop the copy that comes first in items() order.
    const ReferenceLookup lookup(twin);
    engine.BeginExternalEpisode();
    twin.BeginExternalEpisode();
    for (const Link& link : {unknown_right, ghost, outside, outside}) {
      Check(&engine, &twin, lookup, link, false);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(engine.EndExternalEpisode(), twin.EndExternalEpisode());
  }
  engine.ReplaceCandidates(seeds);
  twin.ReplaceCandidates(seeds);

  Rng rng(11);
  for (int pass = 0; pass < 6; ++pass) {
    if (pass == 3) {
      // Re-seed after the ingest: the duplicates are extras again.
      engine.ReplaceCandidates(seeds);
      twin.ReplaceCandidates(seeds);
    }
    const ReferenceLookup lookup(twin);
    rng.Shuffle(&links);
    engine.BeginExternalEpisode();
    twin.BeginExternalEpisode();
    for (const Link& link : links) {
      // Mostly negative early on, so extras and candidates go before the
      // exploration refills them.
      Check(&engine, &twin, lookup, link, rng.NextBool(pass % 3 == 0 ? 0.2
                                                                     : 0.5));
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(engine.EndExternalEpisode(), twin.EndExternalEpisode());
    EXPECT_EQ(engine.CandidateLinks(), twin.CandidateLinks());
  }
}

}  // namespace
}  // namespace alex::core
