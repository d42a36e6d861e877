#include "federation/link_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linking/link.h"

namespace alex::fed {
namespace {

using linking::Link;

// The view `links` publishes on a fresh staged set.
std::shared_ptr<const LinkView> Publish(const std::vector<Link>& links) {
  StagedLinkSet staged;
  for (const Link& link : links) staged.Stage(link, true);
  return staged.Publish();
}

TEST(LinkSetTest, AddAndContains) {
  std::shared_ptr<const LinkView> links = Publish({Link{"a", "x", 0.9}});
  EXPECT_TRUE(links->Contains("a", "x"));
  EXPECT_FALSE(links->Contains("x", "a"));  // directional
  EXPECT_EQ(links->size(), 1u);
}

TEST(LinkSetTest, DuplicateAddReturnsFalse) {
  // Re-adding a present link, in the same epoch or a later one, changes
  // nothing.
  StagedLinkSet staged;
  staged.Stage(Link{"a", "x", 0.9}, true);
  staged.Stage(Link{"a", "x", 0.5}, true);
  EXPECT_EQ(staged.Publish()->size(), 1u);
  staged.Stage(Link{"a", "x", 0.7}, true);
  std::shared_ptr<const LinkView> links = staged.Publish();
  EXPECT_EQ(links->size(), 1u);
  EXPECT_EQ(links->RightsOf("a"), std::vector<std::string>{"x"});
}

TEST(LinkSetTest, Remove) {
  StagedLinkSet staged;
  staged.Stage(Link{"a", "x", 1.0}, true);
  staged.Stage(Link{"a", "y", 1.0}, true);
  (void)staged.Publish();
  staged.Stage(Link{"a", "x", 1.0}, false);
  std::shared_ptr<const LinkView> links = staged.Publish();
  EXPECT_FALSE(links->Contains("a", "x"));
  EXPECT_TRUE(links->Contains("a", "y"));
  EXPECT_EQ(links->size(), 1u);
  // Removing an absent link is a no-op.
  staged.Stage(Link{"a", "x", 1.0}, false);
  EXPECT_EQ(staged.Publish()->size(), 1u);
}

TEST(LinkSetTest, RightsOfAndLeftsOf) {
  std::shared_ptr<const LinkView> links = Publish(
      {Link{"a", "x", 1.0}, Link{"a", "y", 1.0}, Link{"b", "x", 1.0}});
  EXPECT_EQ(links->RightsOf("a"), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(links->LeftsOf("x"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(links->RightsOf("zzz").empty());
  EXPECT_TRUE(links->LeftsOf("zzz").empty());
}

TEST(LinkSetTest, RemoveCleansIndexes) {
  StagedLinkSet staged;
  staged.Stage(Link{"a", "x", 1.0}, true);
  (void)staged.Publish();
  staged.Stage(Link{"a", "x", 1.0}, false);
  std::shared_ptr<const LinkView> links = staged.Publish();
  EXPECT_TRUE(links->RightsOf("a").empty());
  EXPECT_TRUE(links->LeftsOf("x").empty());
  EXPECT_EQ(links->size(), 0u);
}

std::string L(int i) { return "http://left/" + std::to_string(i); }
std::string R(int i) { return "http://right/" + std::to_string(i); }

// Brute-force membership: (left, right) IRI pairs.
using Pairs = std::set<std::pair<std::string, std::string>>;

// A view must answer exactly like the brute-force pair set, for every IRI
// staged or not: neighbours sorted ascending, Contains directional, nothing
// for an unknown IRI.
void ExpectSameAnswers(const LinkView& view, const Pairs& expect, int iris) {
  EXPECT_EQ(view.size(), expect.size());
  for (int i = 0; i < iris; ++i) {
    std::vector<std::string> rights;
    std::vector<std::string> lefts;
    for (const auto& [left, right] : expect) {  // ascending (left, right)
      if (left == L(i)) rights.push_back(right);
    }
    for (const auto& [left, right] : expect) {
      if (right == R(i)) lefts.push_back(left);
    }
    std::sort(lefts.begin(), lefts.end());
    EXPECT_EQ(view.RightsOf(L(i)), rights) << "left " << i;
    EXPECT_EQ(view.LeftsOf(R(i)), lefts) << "right " << i;
    EXPECT_TRUE(view.LeftsOf(L(i)).empty()) << "left " << i;
    EXPECT_TRUE(view.RightsOf(R(i)).empty()) << "right " << i;
    for (int j = 0; j < iris; ++j) {
      EXPECT_EQ(view.Contains(L(i), R(j)), expect.count({L(i), R(j)}) > 0);
      EXPECT_FALSE(view.Contains(R(j), L(i)));
    }
  }
  EXPECT_TRUE(view.RightsOf("http://unknown").empty());
  EXPECT_TRUE(view.LeftsOf("http://unknown").empty());
  EXPECT_FALSE(view.Contains("http://unknown", R(0)));
  EXPECT_FALSE(view.Contains(L(0), "http://unknown"));
}

// The distinct endpoints of `links`, ascending.
std::vector<std::string> Endpoints(const std::vector<Link>& links) {
  std::set<std::string> iris;
  for (const Link& link : links) {
    iris.insert(link.left);
    iris.insert(link.right);
  }
  return {iris.begin(), iris.end()};
}

TEST(StagedLinkSetTest, MatchesMaterializedUnderRandomChurn) {
  constexpr int kRounds = 6;
  constexpr int kIrisPerRound = 4;
  constexpr int kMaxIris = kIrisPerRound * kRounds;
  Rng rng(7);
  StagedLinkSet staged;
  Pairs expect;
  // Every published view, pinned, beside the membership it froze.
  std::vector<std::pair<std::shared_ptr<const LinkView>, Pairs>> epochs;

  for (int round = 0; round < kRounds; ++round) {
    // Each epoch widens the IRI range, so the IRIs at its top are first
    // staged in a later epoch than the rest.
    const int iris = kIrisPerRound * (round + 1);
    std::vector<Link> epoch_links;
    auto stage = [&](const Link& link, bool add) {
      staged.Stage(link, add);
      epoch_links.push_back(link);
      if (add) {
        expect.insert({link.left, link.right});
      } else {
        expect.erase({link.left, link.right});
      }
    };
    if (round == 0) {
      for (int i = 0; i < iris; ++i) stage(Link{L(i), R(i), 1.0}, true);
    }
    for (int step = 0; step < 3 * iris; ++step) {
      stage(Link{L(static_cast<int>(rng.NextBounded(iris))),
                 R(static_cast<int>(rng.NextBounded(iris))), 1.0},
            rng.NextBool(0.5));
    }
    // add -> remove -> add of one pair within the epoch: the last state
    // wins. Its left IRI is new this epoch.
    const Link flip{L(iris - 1), R(round), 1.0};
    stage(flip, true);
    stage(flip, false);
    stage(flip, true);
    // A cancelled add still names its endpoints as invalidated.
    const Link cancelled{L(round), R(iris - 1), 1.0};
    if (expect.count({cancelled.left, cancelled.right}) == 0) {
      stage(cancelled, true);
      stage(cancelled, false);
    }

    EXPECT_EQ(staged.EpochDeltaIris(), Endpoints(epoch_links));
    std::shared_ptr<const LinkView> view = staged.Publish();
    EXPECT_TRUE(staged.EpochDeltaIris().empty());  // Publish clears them
    EXPECT_TRUE(view->Contains(flip.left, flip.right));
    ExpectSameAnswers(*view, expect, kMaxIris);  // every pair, so sizes too
    epochs.emplace_back(view, expect);
  }

  // Every pinned view still answers its own epoch after the later
  // publishes.
  for (const auto& [view, membership] : epochs) {
    ExpectSameAnswers(*view, membership, kMaxIris);
  }
}

TEST(StagedLinkSetTest, PublishedViewsAreImmutableUnderLaterStaging) {
  StagedLinkSet staged;
  staged.Stage(Link{L(1), R(1), 1.0}, true);
  std::shared_ptr<const LinkView> epoch0 = staged.Publish();

  staged.Stage(Link{L(1), R(1), 1.0}, false);
  staged.Stage(Link{L(2), R(2), 1.0}, true);
  std::shared_ptr<const LinkView> epoch1 = staged.Publish();

  // Epoch 0 still answers its own state; epoch 1 the new one.
  EXPECT_TRUE(epoch0->Contains(L(1), R(1)));
  EXPECT_FALSE(epoch0->Contains(L(2), R(2)));
  EXPECT_FALSE(epoch1->Contains(L(1), R(1)));
  EXPECT_TRUE(epoch1->Contains(L(2), R(2)));
  EXPECT_EQ(epoch0->RightsOf(L(1)), std::vector<std::string>{R(1)});
  EXPECT_TRUE(epoch1->RightsOf(L(1)).empty());
}

TEST(StagedLinkSetTest, EpochDeltaIsSortedAndClearedByPublish) {
  StagedLinkSet staged;
  staged.Stage(Link{L(3), R(3), 1.0}, true);
  staged.Stage(Link{L(1), R(1), 1.0}, true);
  staged.Stage(Link{L(2), R(2), 1.0}, false);  // remove of absent: net no-op
  staged.Stage(Link{L(1), R(3), 1.0}, true);
  // Every touched IRI reported once, in order.
  const std::vector<std::string> expected = {L(1), L(2), L(3),
                                             R(1), R(2), R(3)};
  EXPECT_EQ(staged.EpochDeltaIris(), expected);

  (void)staged.Publish();
  EXPECT_TRUE(staged.EpochDeltaIris().empty());
  staged.Stage(Link{L(9), R(1), 1.0}, true);
  EXPECT_EQ(staged.EpochDeltaIris(), (std::vector<std::string>{L(9), R(1)}));
}

TEST(StagedLinkSetTest, AddThenRemoveWithinEpochCancels) {
  StagedLinkSet staged;
  staged.Stage(Link{L(5), R(5), 1.0}, true);
  staged.Stage(Link{L(5), R(5), 1.0}, false);
  std::shared_ptr<const LinkView> view = staged.Publish();
  EXPECT_FALSE(view->Contains(L(5), R(5)));
  EXPECT_TRUE(view->RightsOf(L(5)).empty());
  EXPECT_TRUE(view->LeftsOf(R(5)).empty());
}

TEST(StagedLinkSetTest, ViewOutlivesStagedSet) {
  std::shared_ptr<const LinkView> view;
  {
    StagedLinkSet staged;
    staged.Stage(Link{L(1), R(1), 1.0}, true);
    view = staged.Publish();  // the view holds the IRI storage alive
  }
  EXPECT_TRUE(view->Contains(L(1), R(1)));
  EXPECT_EQ(view->RightsOf(L(1)), std::vector<std::string>{R(1)});
}

// Two readers query published views, each taking the newer view as it
// appears, while the publisher stages and publishes. Epoch e links L(i) to
// R(e * kLefts + i) only, so every epoch interns new IRIs while readers
// look up older ones, and each view must answer exactly its own epoch.
TEST(StagedLinkSetTest, ReadersFollowPublishesConcurrently) {
  constexpr int kLefts = 16;
  constexpr int kEpochs = 60;
  auto right = [](int epoch, int i) { return R(epoch * kLefts + i); };

  StagedLinkSet staged;
  std::mutex mu;  // guards `latest`
  std::pair<int, std::shared_ptr<const LinkView>> latest;
  auto publish = [&](int epoch) {
    std::shared_ptr<const LinkView> view = staged.Publish();
    std::lock_guard lock(mu);
    latest = {epoch, std::move(view)};
  };
  for (int i = 0; i < kLefts; ++i) {
    staged.Stage(Link{L(i), right(0, i), 1.0}, true);
  }
  publish(0);

  std::atomic<int> mismatches{0};
  std::atomic<int> epochs_seen{0};
  auto read = [&] {
    int seen = -1;
    while (seen < kEpochs - 1) {
      std::pair<int, std::shared_ptr<const LinkView>> pinned;
      {
        std::lock_guard lock(mu);
        pinned = latest;
      }
      if (pinned.first != seen) epochs_seen.fetch_add(1);
      seen = pinned.first;
      const LinkView& view = *pinned.second;
      for (int i = 0; i < kLefts; ++i) {
        const std::string current = right(seen, i);
        const bool ok =
            view.RightsOf(L(i)) == std::vector<std::string>{current} &&
            view.LeftsOf(current) == std::vector<std::string>{L(i)} &&
            view.Contains(L(i), current) &&
            (seen == 0 || !view.Contains(L(i), right(seen - 1, i))) &&
            view.LeftsOf(right(seen + 1, i)).empty();
        if (!ok) mismatches.fetch_add(1);
      }
    }
  };
  std::thread reader_a(read);
  std::thread reader_b(read);
  for (int epoch = 1; epoch < kEpochs; ++epoch) {
    for (int i = 0; i < kLefts; ++i) {
      staged.Stage(Link{L(i), right(epoch - 1, i), 1.0}, false);
      staged.Stage(Link{L(i), right(epoch, i), 1.0}, true);
    }
    publish(epoch);
  }
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(epochs_seen.load(), 2);  // each reader saw at least the last
}

}  // namespace
}  // namespace alex::fed
