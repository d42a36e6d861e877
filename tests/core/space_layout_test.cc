// The feature-space layout, pinned: what every datagen pair profile builds,
// and how many bytes the space's arrays take per kept pair.
//
// Each of the eleven pair profiles, at half its entity counts, is built
// into an 8-partition engine on a 2-worker pool (so Build runs its chunked
// path). One hash over the partitions is pinned: each space's
// FeatureSpace::Fingerprint() (PairIds, entity indexes, feature order and
// score bits of the live pairs) and, for every feature, the live
// (score, PairId) sequence its score index yields. It is pinned at three
// points: after Initialize; after three oracle episodes, which leave pairs
// off the frontier (non-live) for the spans to skip; and after one
// IngestTriples growth epoch, in both ingest modes (incremental Grow into
// pending sidecars, and the rebuild baseline), which must agree. The
// constants were recorded with the earlier per-pair layout and its 16-byte
// score entries, and kept when the score index stopped tracking link churn
// (tombstones and bucket compaction), so a change that keeps them keeps
// every PairId, feature order, score bit and the order of every live span.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "datagen/world.h"
#include "feedback/oracle.h"
#include "linking/paris.h"

namespace alex::core {
namespace {

constexpr double kScale = 0.5;
constexpr int kEpisodes = 3;

datagen::WorldProfile ScaledProfile(const std::string& name) {
  datagen::WorldProfile profile;
  EXPECT_TRUE(datagen::ProfileByName(name, &profile)) << name;
  auto scaled = [](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(n * kScale));
  };
  profile.overlap_entities = scaled(profile.overlap_entities);
  profile.left_only_entities = scaled(profile.left_only_entities);
  profile.right_only_entities = scaled(profile.right_only_entities);
  if (profile.confusable_pairs > 0) {
    profile.confusable_pairs = scaled(profile.confusable_pairs);
  }
  return profile;
}

// FNV-1a over the partitions in partition order: each one's fingerprint,
// then every feature's full-range score-index walk.
uint64_t CombinedFingerprint(const AlexEngine& engine) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  const FeatureId features = static_cast<FeatureId>(engine.catalog().size());
  for (const PartitionAlex& partition : engine.partitions()) {
    const FeatureSpace& space = partition.space();
    mix(space.Fingerprint());
    for (FeatureId feature = 0; feature < features; ++feature) {
      for (const ScoreEntry entry :
           space.PairsInRangeSpan(feature, -kInf, kInf)) {
        mix(std::bit_cast<uint64_t>(entry.score));
        mix(entry.pair);
      }
      mix(~0ull);  // ends the feature's sequence
    }
  }
  return hash;
}

// Bytes of the partitions' pair layouts per kept pair.
double BytesPerKeptPair(const AlexEngine& engine) {
  size_t bytes = 0;
  size_t pairs = 0;
  for (const PartitionAlex& partition : engine.partitions()) {
    bytes += partition.space().MemoryBytes();
    pairs += partition.space().pair_count();
  }
  return pairs == 0 ? 0.0 : static_cast<double>(bytes) / pairs;
}

struct Observed {
  uint64_t initialized = 0;
  uint64_t after_episodes = 0;
  uint64_t after_ingest = 0;
  // Pairs off the frontier after the episodes, and growth entries still
  // pending after the ingest epoch, summed over partitions.
  size_t non_live = 0;
  size_t pending_growth = 0;
  size_t kept_pairs = 0;  // after Initialize
  double initialized_bytes_per_pair = 0.0;
  double episodes_bytes_per_pair = 0.0;
};

Observed RunProfile(const std::string& name, bool incremental_ingest) {
  Observed observed;
  const datagen::WorldProfile profile = ScaledProfile(name);
  datagen::GeneratedWorld world = datagen::Generate(profile);
  feedback::GroundTruth truth(world.ground_truth);
  const std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);

  AlexOptions options;
  options.num_partitions = 8;
  options.num_threads = 2;
  options.episode_size = 200;
  options.seed = 5;
  options.incremental_ingest = incremental_ingest;
  AlexEngine engine(&world.left, &world.right, options);
  const Status init = engine.Initialize(initial);
  EXPECT_TRUE(init.ok()) << name << ": " << init.message();
  if (!init.ok()) return observed;
  observed.initialized = CombinedFingerprint(engine);
  observed.kept_pairs = engine.filtered_pair_count();
  observed.initialized_bytes_per_pair = BytesPerKeptPair(engine);

  feedback::Oracle oracle(&truth, 0.0, 17);
  const FeedbackFn feedback = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };
  for (int episode = 0; episode < kEpisodes; ++episode) {
    engine.RunEpisode(feedback);
  }
  for (const PartitionAlex& partition : engine.partitions()) {
    observed.non_live +=
        partition.space().pair_count() - partition.space().live_pair_count();
  }
  observed.after_episodes = CombinedFingerprint(engine);
  observed.episodes_bytes_per_pair = BytesPerKeptPair(engine);

  const datagen::GrowthSchedule schedule =
      datagen::GrowWorld(profile, /*seed=*/23, /*fraction=*/0.05,
                         /*epochs=*/1);
  datagen::ApplyGrowthEpoch(schedule.epochs[0], &world.left, &world.right);
  const Status ingest = engine.IngestTriples();
  EXPECT_TRUE(ingest.ok()) << name << ": " << ingest.message();
  observed.after_ingest = CombinedFingerprint(engine);
  for (const PartitionAlex& partition : engine.partitions()) {
    observed.pending_growth += partition.space().grown_entry_count();
  }
  return observed;
}

struct Pinned {
  const char* profile;
  uint64_t initialized;
  uint64_t after_episodes;
  uint64_t after_ingest;
};

constexpr Pinned kPinned[] = {
    {"dbpedia_nytimes", 0x75feafe87ac9b4d4ull,
     0xc5fc55c31114ac89ull, 0xec803cc252d716acull},
    {"dbpedia_drugbank", 0x9a6e43413310fae6ull,
     0xf11e8ba127b79936ull, 0x7ba76c590d8736a8ull},
    {"dbpedia_lexvo", 0x7df4ff3b42e935a2ull,
     0x6c5411fa4a4e9de4ull, 0x6b78671e897cf20full},
    {"opencyc_nytimes", 0xe72badf15c545716ull,
     0xf47218bccdf93336ull, 0x92ec69275c0bb379ull},
    {"opencyc_drugbank", 0x401ece537c27020full,
     0xbbb0560949c1c3a7ull, 0x32ee12b793beba94ull},
    {"opencyc_lexvo", 0xbe0e29a8f4ea5585ull,
     0x43ab766897d13612ull, 0x78adac743d67f696ull},
    {"dbpedia_swdf", 0xe42bfc0f320f0cdfull,
     0x38d99504618eb023ull, 0x655d55085b3bd069ull},
    {"opencyc_swdf", 0xb8770cae62fc48e2ull,
     0x83432b34297ee33full, 0x01fad49adfcc9f66ull},
    {"dbpedia_nba_nytimes", 0x269a50a2ee2f9bc8ull,
     0x37742db782278de6ull, 0x3019168f88f2eaf0ull},
    {"opencyc_nba_nytimes", 0x2347aecd049254b7ull,
     0xe8dd5af12f9b0592ull, 0xa9083ae098908892ull},
    {"dbpedia_opencyc", 0xcca499ac11948fcdull,
     0xbfc95a910438e2dbull, 0x767cd22f1d44dde8ull},
};

TEST(SpaceLayoutTest, PinnedFingerprintsOfEveryPairProfile) {
  Observed total;
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE(pinned.profile);
    const Observed incremental = RunProfile(pinned.profile, true);
    const Observed rebuild = RunProfile(pinned.profile, false);
    if (incremental.initialized != pinned.initialized ||
        incremental.after_episodes != pinned.after_episodes ||
        incremental.after_ingest != pinned.after_ingest) {
      // The row to re-pin with, when a change means to alter the spaces.
      std::printf(
          "    {\"%s\", 0x%016llxull,\n     0x%016llxull, 0x%016llxull},\n",
          pinned.profile,
          static_cast<unsigned long long>(incremental.initialized),
          static_cast<unsigned long long>(incremental.after_episodes),
          static_cast<unsigned long long>(incremental.after_ingest));
    }
    EXPECT_EQ(incremental.initialized, pinned.initialized);
    EXPECT_EQ(incremental.after_episodes, pinned.after_episodes);
    EXPECT_EQ(incremental.after_ingest, pinned.after_ingest);
    // The two ingest modes build the same logical space.
    EXPECT_EQ(rebuild.initialized, pinned.initialized);
    EXPECT_EQ(rebuild.after_episodes, pinned.after_episodes);
    EXPECT_EQ(rebuild.after_ingest, pinned.after_ingest);
    total.non_live += incremental.non_live;
    total.pending_growth += incremental.pending_growth;
    if (std::strcmp(pinned.profile, "dbpedia_opencyc") == 0) {
      // The batch-mode stress-test world: the layout's own arrays hold at
      // most 40 bytes per kept pair (about 38: three 4-byte per-pair
      // arrays, a liveness byte, and 12 bytes in the feature arena plus 12
      // in the score index per feature), after Initialize and after the
      // episodes' churn. Ingest growth is not bounded here: Grow appends
      // with ordinary vector growth.
      EXPECT_GT(incremental.kept_pairs, 10000u);
      EXPECT_LE(incremental.initialized_bytes_per_pair, 40.0);
      EXPECT_LE(incremental.episodes_bytes_per_pair, 40.0);
    }
  }
  // The pinned spans skipped non-live entries after the episodes, and read
  // the pending stream after the ingest epoch.
  EXPECT_GT(total.non_live, 0u);
  EXPECT_GT(total.pending_growth, 0u);
}

// MemoryBytes counts what the arrays allocated: an empty space holds next
// to nothing, and a built one at least its per-pair arrays.
TEST(SpaceLayoutTest, MemoryBytesFollowsTheArrays) {
  EXPECT_LT(FeatureSpace().MemoryBytes(), 64u);
  const datagen::WorldProfile profile = ScaledProfile("dbpedia_swdf");
  const datagen::GeneratedWorld world = datagen::Generate(profile);
  FeatureCatalog catalog;
  const FeatureSpace space = FeatureSpace::Build(
      world.left, world.left.Subjects(), world.right, world.right.Subjects(),
      &catalog, FeatureSpaceOptions{});
  ASSERT_GT(space.pair_count(), 0u);
  size_t entries = 0;
  for (PairId id = 0; id < space.pair_count(); ++id) {
    entries += space.pair(id).features.size();
  }
  // Three 4-byte arrays and a liveness byte per pair; a 4-byte id and an
  // 8-byte score per entry, in the arena and again in the score index.
  EXPECT_GE(space.MemoryBytes(), 13 * space.pair_count() + 24 * entries);
}

}  // namespace
}  // namespace alex::core
