// Randomized differential for incremental BlockingIndex maintenance:
// growing an index with AddRights() must leave it logically identical —
// Fingerprint(), probe results, per-cell channel masks — to a fresh
// Build() over the same entities, after every batch, across all key
// channels (value/token/deletion/gram/numeric/date), the gram tier
// boundaries, and pending-merge thresholds from eager to never. The
// ReverseProbeIndex must find, for every new right, exactly the lefts whose
// min_right-restricted forward probe reaches it, with the same cell masks.
#include "core/blocking.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feature_set.h"
#include "rdf/term.h"

namespace alex::core {
namespace {

using rdf::Term;

void AddAttr(PreparedEntity* entity, const std::string& pred,
             const Term& term) {
  PreparedAttribute attr;
  attr.predicate = pred;
  attr.value = PrepareValue(term);
  entity->attributes.push_back(std::move(attr));
}

// Builds `count` entities with 1-3 attributes drawn from `pool`.
// Deterministic in `seed`; entity ids continue the caller's numbering.
std::vector<PreparedEntity> MakeEntities(const std::vector<Term>& pool,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<PreparedEntity> entities;
  entities.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PreparedEntity entity;
    entity.iri = "http://r/x" + std::to_string(i);
    entity.subject = static_cast<rdf::TermId>(i);
    const size_t attrs = 1 + rng.NextBounded(3);
    for (size_t a = 0; a < attrs; ++a) {
      AddAttr(&entity, "p" + std::to_string(rng.NextBounded(3)),
              pool[rng.NextBounded(pool.size())]);
    }
    entities.push_back(std::move(entity));
  }
  return entities;
}

// Value pools per key channel. Near-duplicates are deliberate: blocks must
// actually collide for the differential to exercise non-trivial postings.
std::vector<Term> ValuePool() {
  return {Term::StringLiteral("alpha"), Term::StringLiteral("beta"),
          Term::StringLiteral("gamma"), Term::StringLiteral("Alpha"),
          Term::StringLiteral("")};
}

std::vector<Term> TokenPool() {
  return {Term::StringLiteral("alpha beta gamma"),
          Term::StringLiteral("gamma delta"),
          Term::StringLiteral("beta epsilon zeta"),
          Term::StringLiteral("delta alpha"),
          Term::StringLiteral("zeta eta theta")};
}

std::vector<Term> DeletionPool() {
  // Short tokens within the deletion-variant channel's length cap, at edit
  // distance 1-2 of each other ("smith"/"smyth" share no trigram).
  return {Term::StringLiteral("smith"),  Term::StringLiteral("smyth"),
          Term::StringLiteral("smih"),   Term::StringLiteral("smiith"),
          Term::StringLiteral("jones"),  Term::StringLiteral("jomes"),
          Term::StringLiteral("kay"),    Term::StringLiteral("kai")};
}

std::vector<Term> GramTierPool() {
  // Value lengths straddling both gram tiers of the default options:
  // single_gram_value_length = 12 (11/12/13) and trigram_value_length = 18
  // (17/18/19), plus a long 4-gram-tier value. Perturbed copies keep most
  // grams shared while the whole-value channel misses.
  return {Term::StringLiteral("abcdefghijk"),          // 11
          Term::StringLiteral("abcdefghijkl"),         // 12
          Term::StringLiteral("abcdefghijklm"),        // 13
          Term::StringLiteral("abcdefghiXkl"),         // 12, perturbed
          Term::StringLiteral("qrstuvwxyzabcdefg"),    // 17
          Term::StringLiteral("qrstuvwxyzabcdefgh"),   // 18
          Term::StringLiteral("qrstuvwxyzabcdefghi"),  // 19
          Term::StringLiteral("qrstuvwxyZabcdefgh"),   // 18, perturbed
          Term::StringLiteral("the quick brown fox jumps over"),   // 30
          Term::StringLiteral("the quick brawn fox jumps over")};  // 30
}

std::vector<Term> NumericPool() {
  std::vector<Term> pool;
  for (int64_t v : {0, 1, -1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,
                    -999, -1000, -1001}) {
    pool.push_back(Term::IntegerLiteral(v));
  }
  return pool;
}

std::vector<Term> DatePool() {
  // Dates hugging bucket boundaries (month and year rollovers).
  return {Term::DateLiteral("1969-12-31"), Term::DateLiteral("1970-01-01"),
          Term::DateLiteral("1970-01-02"), Term::DateLiteral("1999-12-31"),
          Term::DateLiteral("2000-01-01"), Term::DateLiteral("1940-06-15"),
          Term::DateLiteral("2010-06-15")};
}

std::vector<Term> MixedPool() {
  std::vector<Term> pool;
  for (auto maker : {ValuePool, TokenPool, DeletionPool, GramTierPool,
                     NumericPool, DatePool}) {
    std::vector<Term> part = maker();
    pool.insert(pool.end(), part.begin(), part.end());
  }
  return pool;
}

// Asserts the two indexes answer every probe identically: same candidate
// set, same per-cell channel bitmasks.
void ExpectSameProbes(const BlockingIndex& grown, const BlockingIndex& fresh,
                      const std::vector<PreparedEntity>& probes,
                      const std::string& context) {
  ProbeScratch grown_scratch, fresh_scratch;
  for (size_t i = 0; i < probes.size(); i += 5) {
    grown.Probe(probes[i], &grown_scratch);
    fresh.Probe(probes[i], &fresh_scratch);
    ASSERT_EQ(grown_scratch.touched(), fresh_scratch.touched())
        << context << " probe " << i;
    for (uint32_t r : grown_scratch.touched()) {
      ASSERT_EQ(std::memcmp(grown_scratch.cell_channels(r),
                            fresh_scratch.cell_channels(r), kCellCount),
                0)
          << context << " probe " << i << " candidate " << r;
    }
  }
}

// Grows an index batch-by-batch from `base` covered entities and checks it
// against a fresh Build() after EVERY batch. Returns the grown index for
// counter assertions.
BlockingIndex GrowAndCheck(const std::vector<PreparedEntity>& all,
                           size_t base, size_t batch, size_t threshold) {
  sim::SimilarityOptions sim_options;
  BlockingOptions options;
  options.pending_merge_threshold = threshold;

  std::vector<PreparedEntity> covered(all.begin(),
                                      all.begin() + std::min(base, all.size()));
  BlockingIndex grown = BlockingIndex::Build(covered, options, sim_options);
  while (covered.size() < all.size()) {
    const size_t first_new = covered.size();
    const size_t next = std::min(all.size(), first_new + batch);
    covered.insert(covered.end(), all.begin() + first_new, all.begin() + next);
    grown.AddRights(covered, first_new);

    BlockingIndex fresh = BlockingIndex::Build(covered, options, sim_options);
    const std::string context = "threshold " + std::to_string(threshold) +
                                " covered " + std::to_string(covered.size());
    EXPECT_EQ(grown.num_rights(), fresh.num_rights()) << context;
    EXPECT_EQ(grown.posting_count(), fresh.posting_count()) << context;
    EXPECT_EQ(grown.Fingerprint(), fresh.Fingerprint()) << context;
    ExpectSameProbes(grown, fresh, covered, context);
  }
  return grown;
}

constexpr size_t kNeverMerge = size_t{1} << 30;

TEST(BlockingGrowthTest, MixedChannelsMatchFreshBuildAcrossThresholds) {
  std::vector<PreparedEntity> all = MakeEntities(MixedPool(), 90, 0xb10c);
  for (size_t threshold : {size_t{0}, size_t{1}, size_t{32}, kNeverMerge}) {
    GrowAndCheck(all, /*base=*/20, /*batch=*/7, threshold);
  }
}

TEST(BlockingGrowthTest, EveryChannelMatchesFreshBuildThroughGrowth) {
  struct Channel {
    const char* name;
    std::vector<Term> pool;
  };
  const Channel channels[] = {
      {"value", ValuePool()},     {"token", TokenPool()},
      {"deletion", DeletionPool()}, {"gram", GramTierPool()},
      {"numeric", NumericPool()}, {"date", DatePool()},
  };
  for (const Channel& channel : channels) {
    SCOPED_TRACE(channel.name);
    std::vector<PreparedEntity> all =
        MakeEntities(channel.pool, 40, 0x5eed);
    for (size_t threshold : {size_t{0}, kNeverMerge}) {
      BlockingIndex grown = GrowAndCheck(all, /*base=*/8, /*batch=*/5,
                                         threshold);
      EXPECT_GT(grown.posting_count(), 0u);
    }
  }
}

TEST(BlockingGrowthTest, ThresholdsSteerSidecarMerges) {
  std::vector<PreparedEntity> all = MakeEntities(MixedPool(), 80, 0xfeed);

  // Eager merging: the sidecar is folded into the CSR as it grows.
  BlockingIndex eager = GrowAndCheck(all, 10, 10, /*threshold=*/0);
  EXPECT_GT(eager.merge_count(), 0u);

  // Never merging: everything added after the base Build stays pending.
  BlockingIndex never = GrowAndCheck(all, 10, 10, kNeverMerge);
  EXPECT_EQ(never.merge_count(), 0u);
  EXPECT_GT(never.pending_count(), 0u);
}

TEST(BlockingGrowthTest, GrowthFromEmptyIndexMatchesFreshBuild) {
  std::vector<PreparedEntity> all = MakeEntities(MixedPool(), 30, 0xe0);
  sim::SimilarityOptions sim_options;
  BlockingOptions options;
  BlockingIndex grown =
      BlockingIndex::Build(std::vector<PreparedEntity>{}, options, sim_options);
  EXPECT_TRUE(grown.empty());
  grown.AddRights(all, 0);
  BlockingIndex fresh = BlockingIndex::Build(all, options, sim_options);
  EXPECT_EQ(grown.Fingerprint(), fresh.Fingerprint());
  ExpectSameProbes(grown, fresh, all, "from empty");
}

TEST(BlockingGrowthTest, MinRightProbeEqualsRestrictedFullProbe) {
  std::vector<PreparedEntity> all = MakeEntities(MixedPool(), 60, 0x3141);
  sim::SimilarityOptions sim_options;
  BlockingOptions options;
  options.pending_merge_threshold = kNeverMerge;  // keep a live sidecar

  std::vector<PreparedEntity> base(all.begin(), all.begin() + 40);
  BlockingIndex index = BlockingIndex::Build(base, options, sim_options);
  index.AddRights(all, 40);
  ASSERT_GT(index.pending_count(), 0u)
      << "fixture must exercise the pending-sidecar probe path";

  ProbeScratch full_scratch, restricted_scratch;
  for (size_t i = 0; i < all.size(); i += 7) {
    index.Probe(all[i], &full_scratch);
    for (uint32_t min_right : {0u, 10u, 40u, 55u,
                               static_cast<uint32_t>(all.size())}) {
      index.Probe(all[i], &restricted_scratch, min_right);
      std::vector<uint32_t> expected;
      for (uint32_t r : full_scratch.touched()) {
        if (r >= min_right) expected.push_back(r);
      }
      ASSERT_EQ(restricted_scratch.touched(), expected)
          << "probe " << i << " min_right " << min_right;
      for (uint32_t r : expected) {
        ASSERT_EQ(std::memcmp(restricted_scratch.cell_channels(r),
                              full_scratch.cell_channels(r), kCellCount),
                  0)
            << "probe " << i << " min_right " << min_right << " candidate "
            << r;
      }
    }
  }
}

TEST(BlockingGrowthTest, CandidatesAgreeAfterGrowth) {
  std::vector<PreparedEntity> all = MakeEntities(MixedPool(), 50, 0x777);
  sim::SimilarityOptions sim_options;
  BlockingOptions options;
  options.pending_merge_threshold = 1;

  std::vector<PreparedEntity> base(all.begin(), all.begin() + 25);
  BlockingIndex grown = BlockingIndex::Build(base, options, sim_options);
  grown.AddRights(all, 25);
  BlockingIndex fresh = BlockingIndex::Build(all, options, sim_options);

  ProbeScratch scratch;
  std::vector<uint32_t> grown_out, fresh_out;
  std::vector<uint8_t> grown_channels, fresh_channels;
  for (size_t i = 0; i < all.size(); i += 3) {
    grown.Candidates(all[i], &scratch, &grown_out, &grown_channels);
    fresh.Candidates(all[i], &scratch, &fresh_out, &fresh_channels);
    ASSERT_EQ(grown_out, fresh_out) << "probe " << i;
    ASSERT_EQ(grown_channels, fresh_channels) << "probe " << i;
    EXPECT_TRUE(std::is_sorted(grown_out.begin(), grown_out.end()));
  }
}

// -- Exact reverse probe -----------------------------------------------------

// Days since 1970-01-01 as an ISO date (Hinnant's civil_from_days).
std::string IsoDate(int64_t days) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const int64_t doe = days - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t day = doy - (153 * mp + 2) / 5 + 1;
  const int64_t month = mp < 10 ? mp + 3 : mp - 9;
  const int64_t year = yoe + era * 400 + (month <= 2 ? 1 : 0);
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%04lld-%02lld-%02lld",
                static_cast<long long>(year), static_cast<long long>(month),
                static_cast<long long>(day));
  return buffer;
}

// Values for the corner cases of the reverse probe: short values (within
// single_gram_value_length) and their near misses, gram-tier lengths,
// numbers across the ±1 sign split and on both sides of logarithmic bucket
// edges, and dates on both sides of bucket edges.
std::vector<Term> CornerPool() {
  std::vector<Term> pool = {
      Term::StringLiteral("ada"),           Term::StringLiteral("kay"),
      Term::StringLiteral("smith"),         Term::StringLiteral("smyth"),
      Term::StringLiteral("abcdefghij"),    Term::StringLiteral("abcdefghXj"),
      Term::StringLiteral("abcdefghijkl"),  Term::StringLiteral("abcdefghijklm"),
      Term::StringLiteral("qrstuvwxyzabcdefgh"),
      Term::StringLiteral("qrstuvwxyZabcdefghi"),
      Term::StringLiteral("the quick brown fox jumps over"),
      Term::StringLiteral("the quick brawn fox jumps over")};
  for (double v : {-1.2, -1.05, -1.0, -0.9, 0.0, 0.9, 1.0, 1.05, 1.2}) {
    pool.push_back(Term::DoubleLiteral(v));
  }
  const sim::SimilarityOptions sim;
  for (int bucket : {3, 24}) {
    const double edge = std::exp(bucket * std::log1p(sim.numeric_tolerance));
    for (double v : {edge * (1 - 1e-9), edge * (1 + 1e-9)}) {
      pool.push_back(Term::DoubleLiteral(v));
      pool.push_back(Term::DoubleLiteral(-v));
    }
  }
  const int64_t scale = static_cast<int64_t>(sim.date_scale_days);
  for (int64_t bucket : {-3, 0, 9}) {
    for (int64_t offset : {-1, 0, 1}) {
      pool.push_back(Term::DateLiteral(IsoDate(bucket * scale + offset)));
    }
  }
  return pool;
}

// Entities with 3, 9 and 20 attributes in turn, nothing capped. Even
// entities draw their values from CornerPool(). Odd ones draw random
// strings over `alphabet`, which the other side's odd entities do not use,
// so two odd entities share keys only through `repeated`. From attribute 7
// on, which all share the last cell slot, about half the values are one of
// `repeated` (chosen per entity), so equal keys arrive through several
// attributes of one entity.
std::vector<PreparedEntity> MakeWideEntities(const std::string& prefix,
                                             size_t count,
                                             const std::string& alphabet,
                                             const std::vector<Term>& repeated,
                                             uint64_t seed) {
  const std::vector<Term> pool = CornerPool();
  Rng rng(seed);
  std::vector<PreparedEntity> entities(count);
  for (size_t i = 0; i < count; ++i) {
    PreparedEntity& entity = entities[i];
    entity.iri = prefix + std::to_string(i);
    entity.subject = static_cast<rdf::TermId>(i);
    const size_t attrs = std::vector<size_t>{3, 9, 20}[i % 3];
    const Term& repeat = repeated[rng.NextBounded(repeated.size())];
    for (size_t a = 0; a < attrs; ++a) {
      Term term = pool[rng.NextBounded(pool.size())];
      if (a >= kCellAttrCap - 1 && rng.NextBool(0.5)) {
        term = repeat;
      } else if (i % 2 == 1) {
        std::string noise(3 + rng.NextBounded(4), ' ');
        for (char& c : noise) c = alphabet[rng.NextBounded(alphabet.size())];
        term = Term::StringLiteral(noise);
      }
      std::string predicate = "p";
      predicate += std::to_string(a);
      AddAttr(&entity, predicate, term);
    }
  }
  return entities;
}

using CandidateCells = std::map<uint32_t, std::vector<uint8_t>>;

// Right index -> cells, per left: what a forward probe of each left,
// restricted to rights >= first_new, finds.
std::vector<CandidateCells> ForwardCandidates(
    const BlockingIndex& index, const std::vector<PreparedEntity>& lefts,
    size_t num_lefts, uint32_t first_new) {
  std::vector<CandidateCells> out(num_lefts);
  ProbeScratch scratch;
  for (size_t i = 0; i < num_lefts; ++i) {
    index.Probe(lefts[i], &scratch, first_new);
    for (uint32_t r : scratch.touched()) {
      out[i][r].assign(scratch.cell_channels(r),
                       scratch.cell_channels(r) + kCellCount);
    }
  }
  return out;
}

// The same, from one reverse probe per new right.
std::vector<CandidateCells> ReverseCandidates(
    const ReverseProbeIndex& index, const std::vector<PreparedEntity>& rights,
    size_t first_new) {
  std::vector<CandidateCells> out(index.num_lefts());
  ProbeScratch scratch;
  for (size_t r = first_new; r < rights.size(); ++r) {
    index.Probe(rights[r], &scratch);
    EXPECT_TRUE(std::is_sorted(scratch.touched().begin(),
                               scratch.touched().end()));
    for (uint32_t left : scratch.touched()) {
      out[left][static_cast<uint32_t>(r)].assign(
          scratch.cell_channels(left), scratch.cell_channels(left) + kCellCount);
    }
  }
  return out;
}

TEST(ReverseProbeTest, MatchesForwardProbeOfEveryOldLeft) {
  // "zzzzqrsyyyyyy" (13 characters, not short) shares exactly one gram,
  // "qrs", with "qrstuvwxyzabcdefgh", so whether a left's repeated
  // attributes count separately, and whether a right's merge, decides the
  // min_gram_matches rule.
  const std::vector<PreparedEntity> lefts = MakeWideEntities(
      "http://l/e", 42, "abcdefghijklm",
      {Term::StringLiteral("zzzzqrsyyyyyy"), Term::StringLiteral("abcdefghij"),
       Term::DoubleLiteral(1.0)},
      0x1ef7);
  const std::vector<PreparedEntity> all_rights = MakeWideEntities(
      "http://r/x", 48, "nopqrstuvwxyz",
      {Term::StringLiteral("qrstuvwxyzabcdefgh"),
       Term::StringLiteral("abcdefghXj"), Term::DoubleLiteral(-1.05)},
      0x5167);
  const sim::SimilarityOptions sim_options;
  for (uint32_t min_gram_matches : {1u, 2u, 3u}) {
    for (size_t threshold : {size_t{0}, kNeverMerge}) {
      SCOPED_TRACE("min_gram_matches " + std::to_string(min_gram_matches) +
                   " threshold " + std::to_string(threshold));
      BlockingOptions options;
      options.min_gram_matches = min_gram_matches;
      options.pending_merge_threshold = threshold;
      std::vector<PreparedEntity> rights(all_rights.begin(),
                                         all_rights.begin() + 24);
      BlockingIndex index = BlockingIndex::Build(rights, options, sim_options);
      ReverseProbeIndex reverse(options, sim_options);
      auto post_lefts = [&](size_t first, size_t last) {
        std::vector<const PreparedEntity*> batch;
        for (size_t i = first; i < last; ++i) batch.push_back(&lefts[i]);
        reverse.AddLefts(batch);
      };
      post_lefts(0, 30);

      size_t pairs = 0, gram_only = 0, last_cell = 0;
      for (int epoch = 0; epoch < 2; ++epoch) {
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        const size_t first_new = rights.size();
        rights.insert(rights.end(), all_rights.begin() + first_new,
                      all_rights.begin() + first_new + 12);
        index.AddRights(rights, first_new);

        const size_t old_lefts = reverse.num_lefts();
        const std::vector<CandidateCells> forward = ForwardCandidates(
            index, lefts, old_lefts, static_cast<uint32_t>(first_new));
        const std::vector<CandidateCells> reversed =
            ReverseCandidates(reverse, rights, first_new);
        ASSERT_EQ(reversed.size(), forward.size());
        for (size_t i = 0; i < old_lefts; ++i) {
          ASSERT_EQ(reversed[i], forward[i]) << "left " << i;
          for (const auto& [right, cells] : forward[i]) {
            ++pairs;
            uint8_t channels = 0;
            for (uint8_t cell : cells) channels |= cell;
            if (channels == kBlockGram) ++gram_only;
            if (cells.back() != 0) ++last_cell;
          }
        }
        // The epoch's new lefts join through the sidecar, so the next
        // epoch probes them too.
        post_lefts(old_lefts, old_lefts + 6);
      }
      // The corner cases were reached: candidates on grams alone, and cells
      // between two attributes from slot 7 on.
      EXPECT_GT(pairs, 0u);
      EXPECT_GT(gram_only, 0u);
      EXPECT_GT(last_cell, 0u);
    }
  }
}

}  // namespace
}  // namespace alex::core
