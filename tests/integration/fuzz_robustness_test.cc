// Robustness "fuzz" tests: the parsers, the two state loaders (binary store
// snapshots and saved engine state) and the executors must never crash or
// hang on malformed input — they return parse errors (Status) instead, and
// the engine's episode series under heavy link churn must be bit-identical
// at every thread count.
// Deterministic pseudo-random mutation keeps these reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/alex_engine.h"
#include "core/engine_state.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "federation/fault_injection.h"
#include "feedback/oracle.h"
#include "linking/link_io.h"
#include "linking/paris.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot.h"
#include "rdf/turtle.h"
#include "serving/serving_loop.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/tokenizer.h"

namespace alex {
namespace {

// Mutates `text` with random splices, truncations and character noise.
std::string Mutate(const std::string& text, Rng* rng) {
  std::string out = text;
  int edits = 1 + static_cast<int>(rng->NextBounded(6));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->NextBounded(out.size());
    switch (rng->NextBounded(4)) {
      case 0:
        out[pos] = static_cast<char>(rng->NextBounded(256));
        break;
      case 1:
        out.erase(pos, 1 + rng->NextBounded(4));
        break;
      case 2:
        out.insert(pos, std::string(1 + rng->NextBounded(3),
                                    static_cast<char>(
                                        32 + rng->NextBounded(95))));
        break;
      default:
        out.resize(pos);  // truncate
        break;
    }
  }
  return out;
}

TEST(FuzzTest, NTriplesParserNeverCrashes) {
  const std::string seed_doc =
      "<http://x/s> <http://x/p> \"v\\\"esc\"^^"
      "<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "_:b0 <http://x/q> <http://x/o> .\n"
      "# comment\n";
  Rng rng(101);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = Mutate(seed_doc, &rng);
    rdf::TripleStore store("fuzz");
    Status st = rdf::ParseNTriples(mutated, &store);
    // OK or a parse error; anything else is a bug.
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kParseError) << mutated;
    }
  }
}

TEST(FuzzTest, TurtleParserNeverCrashes) {
  const std::string seed_doc =
      "@prefix ex: <http://x/> .\n"
      "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
      "@base <http://base/> .\n"
      "ex:s a ex:Type ; ex:name \"Ada \\\"L\\\"\"@en , \"B\\tc\" ;\n"
      "  ex:born \"1815-12-10\"^^xsd:date ; ex:n -42 , 3.5 , true .\n"
      "_:b0 <rel> <http://x/o> . # comment\n";
  rdf::TripleStore seed_store("seed");
  ASSERT_TRUE(rdf::ParseTurtle(seed_doc, &seed_store).ok());
  EXPECT_EQ(seed_store.size(), 8u);
  Rng rng(505);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = Mutate(seed_doc, &rng);
    rdf::TripleStore store("fuzz");
    Status st = rdf::ParseTurtle(mutated, &store);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kParseError) << mutated;
    }
  }
}

TEST(FuzzTest, SparqlParserNeverCrashes) {
  const std::string seed_query =
      "PREFIX ex: <http://x/> SELECT DISTINCT ?a ?b WHERE { "
      "?a ex:p ?b ; ex:q \"lit\" . { ?a ex:r 5 } UNION { ?a ex:s 2.5 } "
      "OPTIONAL { ?b ex:t ?c } FILTER(?b > 1 && !(?c = \"x\")) } "
      "ORDER BY DESC(?a) LIMIT 10 OFFSET 2";
  Rng rng(202);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = Mutate(seed_query, &rng);
    Result<sparql::Query> query = sparql::ParseQuery(mutated);
    if (!query.ok()) {
      EXPECT_EQ(query.status().code(), StatusCode::kParseError) << mutated;
    }
  }
}

TEST(FuzzTest, MutatedQueriesExecuteSafely) {
  rdf::TripleStore store("data");
  for (int i = 0; i < 20; ++i) {
    store.Add(rdf::Term::Iri("http://x/s" + std::to_string(i)),
              rdf::Term::Iri("http://x/p" + std::to_string(i % 3)),
              rdf::Term::IntegerLiteral(i));
  }
  const std::string seed_query =
      "SELECT ?s ?o WHERE { ?s <http://x/p0> ?o . "
      "FILTER(?o >= 0) } ORDER BY ?o LIMIT 5";
  Rng rng(303);
  int executed = 0;
  for (int i = 0; i < 300; ++i) {
    Result<sparql::Query> query = sparql::ParseQuery(
        Mutate(seed_query, &rng));
    if (!query.ok()) continue;
    Result<std::vector<sparql::Binding>> rows =
        sparql::Execute(query.value(), store);
    if (rows.ok()) ++executed;
  }
  // Many mutants still parse and run; none may crash.
  EXPECT_GT(executed, 0);
}

TEST(FuzzTest, LinksTsvParserNeverCrashes) {
  const std::string seed = "http://l/a\thttp://r/x\t0.97\n# c\nl\tr\n";
  Rng rng(404);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = Mutate(seed, &rng);
    Result<std::vector<linking::Link>> links =
        linking::ParseLinksTsv(mutated);
    if (!links.ok()) {
      EXPECT_EQ(links.status().code(), StatusCode::kParseError);
    }
  }
}

TEST(FuzzTest, StoreSnapshotLoaderNeverCrashes) {
  // One triple per term kind and literal type, so mutations land on every
  // tag, length and id field of the ALEXSNP1 format.
  rdf::TripleStore original("fuzz-source");
  const rdf::Term s = rdf::Term::Iri("http://x/s");
  original.Add(s, rdf::Term::Iri("http://x/name"),
               rdf::Term::StringLiteral("Ada"));
  original.Add(s, rdf::Term::Iri("http://x/n"), rdf::Term::IntegerLiteral(-42));
  original.Add(s, rdf::Term::Iri("http://x/d"), rdf::Term::DoubleLiteral(3.5));
  original.Add(s, rdf::Term::Iri("http://x/born"),
               rdf::Term::DateLiteral("1815-12-10"));
  original.Add(s, rdf::Term::Iri("http://x/ok"),
               rdf::Term::BooleanLiteral(true));
  original.Add(rdf::Term::Blank("b0"), rdf::Term::Iri("http://x/rel"), s);
  const std::string path = ::testing::TempDir() + "/fuzz_snapshot.bin";
  ASSERT_TRUE(rdf::SaveStoreSnapshot(original, path).ok());
  std::string seed_bytes;
  {
    std::ifstream in(path, std::ios::binary);
    seed_bytes.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  ASSERT_GT(seed_bytes.size(), 8u);

  Rng rng(707);
  int loaded = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string mutated = Mutate(seed_bytes, &rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    Result<rdf::TripleStore> store = rdf::LoadStoreSnapshot(path);
    if (!store.ok()) {
      EXPECT_EQ(store.status().code(), StatusCode::kParseError);
      continue;
    }
    // A clean load is a usable store.
    ++loaded;
    rdf::WriteNTriples(store.value());
    store->Subjects();
  }
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

TEST(FuzzTest, EngineStateParserNeverCrashes) {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  profile.overlap_entities = 12;
  profile.left_only_entities = 6;
  profile.right_only_entities = 4;
  profile.confusable_pairs = 3;
  const datagen::GeneratedWorld world = datagen::Generate(profile);
  const feedback::GroundTruth truth(world.ground_truth);
  const std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.95);
  core::AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.episode_size = 20;
  options.seed = 3;
  auto make_engine = [&] {
    auto engine =
        std::make_unique<core::AlexEngine>(&world.left, &world.right, options);
    const Status status = engine->Initialize(initial);
    ALEX_CHECK(status.ok()) << status.ToString();
    return engine;
  };
  feedback::Oracle oracle(&truth, 0.1, 5);
  const core::FeedbackFn feedback = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };

  // The seed document: what a few noisy episodes of learning leave.
  std::string seed_doc;
  {
    auto engine = make_engine();
    for (int episode = 0; episode < 3; ++episode) engine->RunEpisode(feedback);
    const core::EngineState state = core::ExportEngineState(*engine);
    ASSERT_FALSE(state.candidates.empty());
    ASSERT_FALSE(state.policy.empty());
    ASSERT_FALSE(state.returns.empty());
    seed_doc = core::WriteEngineState(state);
  }

  Rng rng(808);
  int imported = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string mutated = Mutate(seed_doc, &rng);
    Result<core::EngineState> state = core::ParseEngineState(mutated);
    if (!state.ok()) {
      EXPECT_EQ(state.status().code(), StatusCode::kParseError) << mutated;
      continue;
    }
    // Whatever parses imports into a fresh engine, which keeps learning.
    auto engine = make_engine();
    ASSERT_TRUE(core::ImportEngineState(state.value(), engine.get()).ok());
    engine->RunEpisode(feedback);
    ++imported;
  }
  EXPECT_GT(imported, 0);
}

TEST(FuzzTest, TokenizerHandlesAllByteValues) {
  for (int c = 0; c < 256; ++c) {
    std::string one(1, static_cast<char>(c));
    sparql::Tokenize(one);   // must not crash
    rdf::TripleStore store("t");
    rdf::ParseNTriples(one, &store);  // must not crash
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Link-churn fuzz regime: a noisy oracle drives episodes full of negative
// feedback, rollbacks and blacklist hits, which flip the explorable
// frontier's liveness flags at every boundary; the episode series — stats,
// quality-relevant counts, per-partition frontier fingerprints, and the
// final link set — must be byte-identical at every thread count.

void AppendBits(std::ostringstream* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  *out << bits << ' ';
}

struct ChurnOutcome {
  std::string series;
  uint64_t negative_feedback = 0;
  uint64_t rollbacks = 0;
  size_t blacklist_entries = 0;
};

// One full run of the churn regime at `threads` workers; everything else
// is held fixed.
ChurnOutcome RunChurnRegime(const datagen::GeneratedWorld& world,
                            const std::vector<linking::Link>& initial,
                            const feedback::GroundTruth& truth, int threads) {
  core::AlexOptions options;
  options.num_partitions = 4;
  options.num_threads = threads;
  options.episode_size = 40;
  options.max_episodes = 10;
  options.blacklist_strikes = 2;
  options.seed = 77;

  core::AlexEngine engine(&world.left, &world.right, options);
  Status status = engine.Initialize(initial);
  ALEX_CHECK(status.ok()) << status.ToString();

  // error_rate 0.2 makes the oracle contradict itself on revisited links:
  // positives that later turn negative trigger rollbacks, repeat negatives
  // trigger blacklist hits. The flip decision is per-link-deterministic, so
  // every run sees the same noise regardless of visit order.
  feedback::Oracle oracle(&truth, 0.2, options.seed + 1);
  auto feedback_fn = [&oracle](const linking::Link& link) {
    return oracle.Feedback(link);
  };

  ChurnOutcome outcome;
  std::ostringstream series;
  eval::EpisodeHooks hooks;
  hooks.on_point = [&](const eval::EpisodePoint& point) {
    if (point.episode == 0) return;
    const core::EpisodeStats& stats = point.stats;
    series << stats.episode << ' ' << stats.feedback_items << ' '
           << stats.positive_feedback << ' ' << stats.negative_feedback << ' '
           << stats.links_added << ' ' << stats.links_removed << ' '
           << stats.rollbacks << ' ' << stats.rolled_back_links << ' '
           << stats.candidate_count << ' ';
    AppendBits(&series, stats.change_fraction);
    for (const core::PartitionAlex& partition : engine.partitions()) {
      series << partition.space().Fingerprint() << ' '
             << partition.space().live_pair_count() << ' ';
    }
    series << '\n';
    outcome.negative_feedback += stats.negative_feedback;
    outcome.rollbacks += stats.rollbacks;
  };
  Result<eval::ExperimentResult> run = eval::RunEpisodes(
      &engine, truth, "churn", options.max_episodes,
      [&] { return engine.RunEpisode(feedback_fn); }, hooks);
  ALEX_CHECK(run.ok()) << run.status().ToString();
  series << "converged " << run->converged << " episodes " << run->episodes
         << '\n';

  std::vector<linking::Link> links = engine.CandidateLinks();
  std::sort(links.begin(), links.end(),
            [](const linking::Link& a, const linking::Link& b) {
              return std::tie(a.left, a.right) < std::tie(b.left, b.right);
            });
  for (const linking::Link& link : links) {
    series << link.left << '\t' << link.right << '\n';
  }
  for (const core::PartitionAlex& partition : engine.partitions()) {
    outcome.blacklist_entries += partition.blacklist().size();
  }
  outcome.series = series.str();
  return outcome;
}

TEST(FuzzTest, LinkChurnSeriesMatchesAtEveryThreadCount) {
  datagen::WorldProfile profile = datagen::TinyTestProfile();
  profile.confusable_pairs = 6;
  datagen::GeneratedWorld world = datagen::Generate(profile);
  feedback::GroundTruth truth(world.ground_truth);
  std::vector<linking::Link> initial = linking::FilterByScore(
      linking::RunParis(world.left, world.right), 0.9);
  ASSERT_GE(initial.size(), 10u) << "profile too small for churn regime";

  std::string reference;
  for (int threads : {1, 2, 4}) {
    ChurnOutcome outcome = RunChurnRegime(world, initial, truth, threads);
    if (reference.empty()) {
      reference = outcome.series;
      // The regime must actually exercise churn, not just confirm links:
      // noisy feedback has to produce negatives, rollbacks, and repeat
      // offenders hitting the blacklist.
      EXPECT_GT(outcome.negative_feedback, 0u);
      EXPECT_GT(outcome.rollbacks, 0u);
      EXPECT_GT(outcome.blacklist_entries, 0u);
    } else {
      EXPECT_EQ(outcome.series, reference)
          << "engine at " << threads << " thread(s) diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// Endpoint-fault fuzz regime: random fault profiles drawn from the fuzz seed
// drive the query-driven feedback loop over unreliable federation endpoints.
// The invariant under test is the repo-wide determinism contract extended to
// the failure domain: with a fixed fault seed, the full episode series —
// quality, feedback counts, AND the fault bookkeeping (incomplete queries,
// skipped verdicts, retries, breaker transitions) — is bitwise-identical at
// every thread count; and fault modes that cannot change answers (pure
// latency) leave the quality series exactly at the reliable baseline.

struct FaultRegimeOutcome {
  std::string full_series;    // everything, fault counters included
  std::string stable_series;  // quality + feedback + degradation only
  uint64_t incomplete_queries = 0;
  uint64_t skipped_feedback = 0;
  uint64_t query_retries = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;
};

// One full query-driven run under `profile`. Everything except the fault
// profile, thread count, and cache switch is held fixed.
FaultRegimeOutcome RunFaultRegime(const datagen::GeneratedWorld& world,
                                  const std::vector<linking::Link>& initial,
                                  const feedback::GroundTruth& truth,
                                  const fed::FaultProfile& profile,
                                  int threads, bool use_cache) {
  core::AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = threads;
  options.seed = 55;
  options.episode_size = 60;
  options.max_episodes = 6;
  core::AlexEngine engine(&world.left, &world.right, options);
  Status status = engine.Initialize(initial);
  ALEX_CHECK(status.ok()) << status.ToString();

  serving::ServingLoopOptions query_options;
  query_options.workload.num_queries = 80;
  query_options.use_query_cache = use_cache;
  query_options.fault_profile = profile;

  Result<serving::ServingRunResult> run =
      serving::RunServingExperiment(&engine, world, truth, query_options);
  ALEX_CHECK(run.ok()) << run.status().ToString();
  const eval::ExperimentResult& result = run->experiment;

  FaultRegimeOutcome outcome;
  std::ostringstream stable;
  std::ostringstream full;
  for (const eval::EpisodePoint& point : result.series) {
    const core::EpisodeStats& stats = point.stats;
    stable << point.episode << ' ';
    AppendBits(&stable, point.quality.precision);
    AppendBits(&stable, point.quality.recall);
    AppendBits(&stable, point.quality.f_measure);
    stable << point.quality.candidates << ' ' << stats.feedback_items << ' '
           << stats.positive_feedback << ' ' << stats.negative_feedback << ' '
           << stats.links_added << ' ' << stats.links_removed << ' '
           << stats.incomplete_queries << ' ' << stats.skipped_feedback
           << '\n';
    // Probe/retry/breaker counters are part of the thread-invariance
    // contract but legitimately differ with the cache on or off (a cache
    // hit skips the probes a fresh execution would issue), so they go into
    // full_series only.
    full << stats.query_probes << ' ' << stats.query_retries << ' '
         << stats.breaker_short_circuits << ' ' << stats.breaker_opens << ' '
         << stats.breaker_half_opens << ' ' << stats.breaker_closes << '\n';
    outcome.incomplete_queries += stats.incomplete_queries;
    outcome.skipped_feedback += stats.skipped_feedback;
    outcome.query_retries += stats.query_retries;
    outcome.breaker_opens += stats.breaker_opens;
    outcome.breaker_short_circuits += stats.breaker_short_circuits;
  }
  outcome.stable_series = stable.str();
  outcome.full_series = outcome.stable_series + full.str();
  return outcome;
}

class EndpointFaultFuzzTest : public ::testing::Test {
 protected:
  EndpointFaultFuzzTest()
      : world_(datagen::Generate(datagen::TinyTestProfile())),
        truth_(world_.ground_truth),
        initial_(linking::FilterByScore(
            linking::RunParis(world_.left, world_.right), 0.95)) {}

  datagen::GeneratedWorld world_;
  feedback::GroundTruth truth_;
  std::vector<linking::Link> initial_;
};

TEST_F(EndpointFaultFuzzTest, FaultSeededSeriesIsThreadCountInvariant) {
  ASSERT_GE(initial_.size(), 5u) << "profile too small for fault regime";

  // Random fault universes from the fuzz seed. Rates are kept below 0.5 so
  // retries usually rescue transient failures and episodes keep making
  // progress; one universe gets an aggressive breaker to force opens.
  Rng rng(505);
  uint64_t total_incomplete = 0;
  uint64_t total_skipped = 0;
  uint64_t total_retries = 0;
  for (int universe = 0; universe < 3; ++universe) {
    fed::FaultProfile profile;
    profile.seed = rng.NextUint64();
    profile.transient_error_rate = 0.05 + 0.1 * universe;
    profile.truncation_rate = static_cast<double>(rng.NextBounded(30)) / 100.0;
    profile.truncation_keep_fraction = 0.5;
    profile.base_latency_micros = static_cast<int64_t>(rng.NextBounded(200));
    profile.latency_jitter_micros =
        static_cast<int64_t>(rng.NextBounded(500));
    profile.spike_rate = static_cast<double>(rng.NextBounded(10)) / 100.0;
    profile.spike_latency_micros = 5000;

    std::string reference;
    for (int threads : {1, 2, 4}) {
      FaultRegimeOutcome outcome = RunFaultRegime(
          world_, initial_, truth_, profile, threads, /*use_cache=*/true);
      if (reference.empty()) {
        reference = outcome.full_series;
        total_incomplete += outcome.incomplete_queries;
        total_skipped += outcome.skipped_feedback;
        total_retries += outcome.query_retries;
      } else {
        EXPECT_EQ(outcome.full_series, reference)
            << "fault universe " << universe << " diverged at " << threads
            << " thread(s)";
      }
    }
  }
  // The regime must actually exercise the failure domain: degraded queries,
  // withheld verdicts, and retries all have to occur somewhere.
  EXPECT_GT(total_incomplete, 0u);
  EXPECT_GT(total_skipped, 0u);
  EXPECT_GT(total_retries, 0u);
}

TEST_F(EndpointFaultFuzzTest, FaultSeriesIsIdenticalWithCacheOnOrOff) {
  // Incomplete results must never be served from or admitted into the
  // query cache, so caching can only skip redundant *complete* executions:
  // quality, feedback, and degradation accounting must be bitwise-identical
  // with the cache on or off (probe/retry totals legitimately drop when
  // cache hits skip execution).
  fed::FaultProfile profile;
  profile.seed = 606;
  profile.transient_error_rate = 0.15;
  profile.truncation_rate = 0.1;
  profile.truncation_keep_fraction = 0.5;
  FaultRegimeOutcome with_cache = RunFaultRegime(
      world_, initial_, truth_, profile, /*threads=*/1, /*use_cache=*/true);
  FaultRegimeOutcome without_cache = RunFaultRegime(
      world_, initial_, truth_, profile, /*threads=*/1, /*use_cache=*/false);
  EXPECT_EQ(with_cache.stable_series, without_cache.stable_series);
  EXPECT_GT(with_cache.incomplete_queries, 0u);
}

TEST_F(EndpointFaultFuzzTest, LatencyOnlyFaultsPreserveReliableQuality) {
  // A latency-only universe costs virtual time but never perturbs answers:
  // the resilient path must reproduce the reliable baseline's quality and
  // feedback series exactly, with zero degradation.
  fed::FaultProfile latency_only;
  latency_only.seed = 707;
  latency_only.base_latency_micros = 100;
  latency_only.latency_jitter_micros = 300;
  ASSERT_FALSE(latency_only.IsZero());

  FaultRegimeOutcome baseline =
      RunFaultRegime(world_, initial_, truth_, fed::FaultProfile{},
                     /*threads=*/1, /*use_cache=*/true);
  FaultRegimeOutcome slow = RunFaultRegime(
      world_, initial_, truth_, latency_only, /*threads=*/1,
      /*use_cache=*/true);
  EXPECT_EQ(slow.stable_series, baseline.stable_series);
  EXPECT_EQ(slow.incomplete_queries, 0u);
  EXPECT_EQ(slow.skipped_feedback, 0u);
  EXPECT_EQ(slow.breaker_opens, 0u);
}

TEST_F(EndpointFaultFuzzTest, PermanentOutageStillConvergesOnSurvivors) {
  // Even with one source permanently dark some queries still complete on
  // the surviving endpoint(s) — the loop keeps training on those instead of
  // halting, and every dark-source query is accounted as skipped, never
  // silently fed back.
  fed::FaultProfile outage;
  // With a 0.5 outage rate this seed's per-endpoint draws condemn source 1
  // (the right store) and spare source 0 — a fixed, deterministic universe
  // with one dark endpoint and one survivor.
  outage.seed = 806;
  outage.permanent_outage_rate = 0.5;
  FaultRegimeOutcome outcome = RunFaultRegime(
      world_, initial_, truth_, outage, /*threads=*/1, /*use_cache=*/true);
  EXPECT_GT(outcome.incomplete_queries, 0u);
  EXPECT_GT(outcome.breaker_short_circuits, 0u);
  EXPECT_GT(outcome.breaker_opens, 0u);
}

}  // namespace
}  // namespace alex
