#include "core/feedback_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"

namespace alex::core {
namespace {

TEST(FeedbackSamplerTest, EmptySamplerReturnsInvalid) {
  FeedbackSampler sampler;
  Rng rng(1);
  EXPECT_EQ(sampler.Sample(&rng), kInvalidPairId);
  EXPECT_TRUE(sampler.empty());
}

TEST(FeedbackSamplerTest, AddRemoveContains) {
  FeedbackSampler sampler;
  sampler.Add(7, 0.5);
  sampler.Add(9, 0.9);
  EXPECT_EQ(sampler.size(), 2u);
  EXPECT_TRUE(sampler.Contains(7));
  sampler.Remove(7);
  EXPECT_FALSE(sampler.Contains(7));
  EXPECT_EQ(sampler.Weight(7), 0.0);
  EXPECT_EQ(sampler.size(), 1u);
  // Re-adding a removed pair starts a fresh tally.
  sampler.Add(7, 0.5);
  EXPECT_TRUE(sampler.Contains(7));
  // Duplicate adds and removes of absentees are no-ops.
  sampler.Add(7, 0.1);
  sampler.Remove(1234);
  EXPECT_EQ(sampler.size(), 2u);
}

TEST(FeedbackSamplerTest, WeightsFollowEntropyAndProximity) {
  FeedbackSamplerOptions options;
  options.theta = 0.3;
  options.min_weight = 1e-3;
  FeedbackSampler sampler(options);
  // Fresh pair at the boundary: full entropy (1.0) * full proximity (1.0).
  sampler.Add(1, 0.3);
  EXPECT_NEAR(sampler.Weight(1), 1.0, 1e-12);
  // Fresh pair with a perfect score: proximity 0 → floored at min_weight.
  sampler.Add(2, 1.0);
  EXPECT_NEAR(sampler.Weight(2), 1e-3, 1e-12);
  // Midway score: proximity (1 - (0.65-0.3)/0.7) = 0.5.
  sampler.Add(3, 0.65);
  EXPECT_NEAR(sampler.Weight(3), 0.5, 1e-12);
  // Unanimous feedback kills the entropy term → floor.
  sampler.RecordFeedback(1, true);
  sampler.RecordFeedback(1, true);
  EXPECT_NEAR(sampler.Weight(1), 1e-3, 1e-12);
  // A split tally restores full entropy.
  sampler.RecordFeedback(1, false);
  sampler.RecordFeedback(1, false);
  EXPECT_NEAR(sampler.Weight(1), 1.0, 1e-12);
  // Entropy of a 3:1 split is ~0.811.
  sampler.RecordFeedback(3, true);
  sampler.RecordFeedback(3, true);
  sampler.RecordFeedback(3, true);
  sampler.RecordFeedback(3, false);
  EXPECT_NEAR(sampler.Weight(3), 0.5 * 0.811278124, 1e-6);
}

TEST(FeedbackSamplerTest, SamplingIsDeterministicGivenSeed) {
  auto build = [] {
    FeedbackSampler sampler;
    for (PairId p = 0; p < 50; ++p) {
      sampler.Add(p, 0.3 + 0.01 * static_cast<double>(p));
    }
    return sampler;
  };
  FeedbackSampler a = build();
  FeedbackSampler b = build();
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Sample(&rng_a), b.Sample(&rng_b));
  }
}

TEST(FeedbackSamplerTest, WeightedArmPrefersUncertainPairs) {
  FeedbackSamplerOptions options;
  options.uniform_mix = 0.0;  // isolate the weighted arm
  options.theta = 0.3;
  FeedbackSampler sampler(options);
  sampler.Add(1, 0.3);  // weight 1.0
  sampler.Add(2, 1.0);  // weight min_weight (1e-3)
  Rng rng(11);
  std::map<PairId, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[sampler.Sample(&rng)];
  // P(2) = 1e-3 / 1.001 — a handful of draws at most.
  EXPECT_GT(counts[1], 4900);
  EXPECT_LT(counts[2], 100);
}

TEST(FeedbackSamplerTest, UniformMixFloorStatistics) {
  // With uniform_mix = 0.25 and one dominant-weight pair, the low-weight
  // pairs must still collectively receive about uniform_mix * (n-1)/n of
  // the draws — the floor that keeps prioritization from starving links.
  FeedbackSamplerOptions options;
  options.uniform_mix = 0.25;
  options.theta = 0.3;
  FeedbackSampler sampler(options);
  sampler.Add(0, 0.3);  // weight 1.0: takes nearly every weighted draw
  const size_t n = 10;
  for (PairId p = 1; p < n; ++p) sampler.Add(p, 1.0);  // floor weights
  Rng rng(23);
  const int draws = 40000;
  int low_weight_hits = 0;
  for (int i = 0; i < draws; ++i) {
    if (sampler.Sample(&rng) != 0) ++low_weight_hits;
  }
  // Expected ≈ uniform_mix * 9/10 + weighted-arm leakage (~0.9%) ≈ 0.232.
  const double fraction =
      static_cast<double>(low_weight_hits) / static_cast<double>(draws);
  EXPECT_GT(fraction, 0.19);
  EXPECT_LT(fraction, 0.28);
  // The mix accounting matches the configured floor.
  const double uniform_fraction =
      static_cast<double>(sampler.uniform_draws()) /
      static_cast<double>(sampler.uniform_draws() +
                          sampler.weighted_draws());
  EXPECT_NEAR(uniform_fraction, 0.25, 0.02);
}

TEST(FeedbackSamplerTest, TotalWeightSurvivesChurn) {
  // Fenwick bookkeeping under heavy add/remove/reweight churn: the scalar
  // total must track the exact sum of live weights.
  FeedbackSampler sampler;
  Rng rng(5);
  std::map<PairId, bool> live;
  for (int step = 0; step < 5000; ++step) {
    PairId p = static_cast<PairId>(rng.NextBounded(200));
    switch (rng.NextBounded(3)) {
      case 0:
        sampler.Add(p, 0.3 + 0.7 * rng.NextDouble());
        live[p] = true;
        break;
      case 1:
        sampler.Remove(p);
        live[p] = false;
        break;
      default:
        sampler.RecordFeedback(p, rng.NextBool(0.5));
        break;
    }
  }
  double expected = 0.0;
  size_t expected_size = 0;
  for (const auto& [pair, is_live] : live) {
    if (!is_live) continue;
    ++expected_size;
    expected += sampler.Weight(pair);
  }
  EXPECT_EQ(sampler.size(), expected_size);
  EXPECT_NEAR(sampler.total_weight(), expected, 1e-9);
  // Sampling still lands on live pairs only.
  for (int i = 0; i < 500; ++i) {
    PairId drawn = sampler.Sample(&rng);
    ASSERT_TRUE(live.count(drawn) > 0 && live[drawn]);
  }
}

TEST(FeedbackSamplerTest, ClearDropsEverything) {
  FeedbackSampler sampler;
  for (PairId p = 0; p < 20; ++p) sampler.Add(p, 0.5);
  sampler.Clear();
  EXPECT_TRUE(sampler.empty());
  EXPECT_EQ(sampler.total_weight(), 0.0);
  Rng rng(3);
  EXPECT_EQ(sampler.Sample(&rng), kInvalidPairId);
  sampler.Add(4, 0.4);
  EXPECT_EQ(sampler.Sample(&rng), 4u);
}

// The engine's sampler measures proximity to the space's θ, not to the
// sampler's default 0.3: at θ = 0.5 a never-judged candidate whose best
// feature score is s < 1 weighs max(1e-3, 1 - (s - 0.5) / 0.5).
TEST(FeedbackSamplerTest, EngineSamplerUsesTheSpaceTheta) {
  const datagen::GeneratedWorld world =
      datagen::Generate(datagen::TinyTestProfile());
  AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.prioritized_sampling = true;
  options.space.theta = 0.5;
  AlexEngine engine(&world.left, &world.right, options);
  ASSERT_TRUE(engine.Initialize({}).ok());
  size_t checked = 0;
  for (PartitionAlex& partition : engine.mutable_partitions()) {
    for (PairId pair = 0; pair < partition.space().pair_count(); ++pair) {
      double best = 0.0;
      for (const auto& entry : partition.space().pair(pair).features) {
        best = std::max(best, entry.second);
      }
      if (best >= 1.0) continue;
      partition.AddInitialCandidate(pair);
      EXPECT_DOUBLE_EQ(partition.sampler().Weight(pair),
                       std::max(1e-3, 1.0 - (best - 0.5) / 0.5))
          << "pair " << pair << " best score " << best;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace alex::core
