// The timing-ratio gates: each compares two implementations of one layer on
// a fixed world and checks the ratio against its bound, after checking that
// both sides computed the same rows or fingerprints where the gate names
// them. The identity gates (thread-count invariance, blocked == exhaustive,
// incremental == rebuild, cached == uncached, ...) are tier-1 tests, and
// perfbench measures the whole pipeline.
//
//   build-bench/bench/bench_gates      (Release build; no options)
//
// Prints a host block, then one line per gate: measured value, bound, PASS
// or FAIL. Exits 1 if any gate fails. Every timing is the best of its
// repeats, except the epoch-pin gate's, which compares the medians of
// alternating blocks; build the program in Release (scripts/ci.sh tier 3
// does).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/alex_engine.h"
#include "core/feature_space.h"
#include "core/partitioner.h"
#include "datagen/world.h"
#include "eval/query_workload.h"
#include "federation/federated_engine.h"
#include "federation/link_set.h"
#include "feedback/aggregator.h"
#include "linking/paris.h"
#include "rdf/dataset_stats.h"
#include "serving/serving_engine.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/term_oracle.h"

namespace {

using alex::Rng;
using alex::ThreadPool;
using alex::core::AlexEngine;
using alex::core::FeatureCatalog;
using alex::core::FeatureSpace;
using alex::linking::Link;
using alex::rdf::TripleStore;
using alex::sparql::Binding;
using alex::sparql::ExecuteOptions;
using alex::sparql::Query;

// Wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string Format(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// Median of `values` (the mean of the middle two for an even count).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

int failures = 0;

// One verdict line. `note` carries context (a failed precondition, or a
// figure printed for information only).
void Report(const std::string& gate, const std::string& value,
            const std::string& bound, bool pass,
            const std::string& note = "") {
  std::printf("%-34s %9s  bound %-8s %s%s%s\n", gate.c_str(), value.c_str(),
              bound.c_str(), pass ? "PASS" : "FAIL",
              note.empty() ? "" : "  ", note.c_str());
  std::fflush(stdout);
  if (!pass) ++failures;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// -- Blocked feature-space build >= 3x the exhaustive build, 2 workers -----

// Best-of-`repeats` wall time of one Initialize-style build: every partition
// of the left store against the whole right store. `workers == 0` is the
// exhaustive path (blocking off, right store re-prepared per partition);
// otherwise blocking is on over `right`, prepared once by the caller, and
// the left-entity loop runs on a pool of `workers`.
double BestBuildMs(const alex::datagen::GeneratedWorld& world,
                   const std::vector<std::vector<alex::rdf::TermId>>& parts,
                   alex::core::FeatureSpaceOptions options, int workers,
                   int repeats,
                   std::shared_ptr<const alex::core::RightContext> right) {
  options.blocking.enabled = workers > 0;
  double best = -1.0;
  for (int rep = 0; rep < repeats; ++rep) {
    FeatureCatalog catalog;
    std::vector<FeatureSpace> spaces;
    const double ms = TimeMs([&] {
      if (workers == 0) {
        for (const auto& part : parts) {
          spaces.push_back(FeatureSpace::Build(world.left, part, world.right,
                                               world.right.Subjects(),
                                               &catalog, options));
        }
        return;
      }
      ThreadPool pool(workers);
      for (const auto& part : parts) {
        spaces.push_back(FeatureSpace::Build(world.left, part, right,
                                             &catalog, options,
                                             workers > 1 ? &pool : nullptr));
      }
    });
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

void BlockedBuildGate() {
  const int kRepeats = 5;
  const int kWorkers = 2;
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  auto parts = alex::core::EqualSizePartition(world.left.Subjects(),
                                              config.alex.num_partitions);
  const double exhaustive_ms = BestBuildMs(world, parts, config.alex.space,
                                           0, kRepeats, nullptr);
  alex::core::FeatureSpaceOptions blocked = config.alex.space;
  blocked.blocking.enabled = true;
  auto right = alex::core::RightContext::Prepare(
      world.right, world.right.Subjects(), blocked);
  const double blocked_ms = BestBuildMs(world, parts, config.alex.space,
                                        kWorkers, kRepeats, right);
  const double ratio = exhaustive_ms / blocked_ms;
  Report("blocked build vs exhaustive, 2w", Format("%.2fx", ratio), ">= 3x",
         ratio >= 3.0,
         Format("(exhaustive %.0f ms, ", exhaustive_ms) +
             Format("blocked %.0f ms)", blocked_ms));
}

// -- Planned >= 1.3x greedy on the multi-join workload ---------------------

// Multi-join workload: every query has >= 4 triple patterns, DISTINCT
// value-join chains with dangling endpoints, where the DP plan generator's
// semi lookup joins and aggregated scans prune work the greedy
// pattern-at-a-time enumerator materializes. One heavy (large self-join)
// predicate per query, light ones elsewhere; a candidate whose
// DISTINCT-free row count nears the ExecuteOptions::max_rows valve is
// rejected, because past it the engines return truncated, and therefore
// different, answers.
std::vector<std::string> GenerateMultiJoinQueries(const TripleStore& store,
                                                  size_t count,
                                                  uint64_t seed) {
  const alex::rdf::Dictionary& dict = store.dictionary();
  std::vector<std::pair<uint64_t, std::string>> heavy;  // (self-join, IRI)
  std::vector<std::pair<uint64_t, std::string>> light;
  for (alex::rdf::TermId p : store.Predicates()) {
    uint64_t self_join = 0;
    uint64_t group = 0;
    alex::rdf::TermId prev_object = alex::rdf::kInvalidTermId;
    for (const alex::rdf::Triple& t :
         store.Match(std::nullopt, p, std::nullopt)) {
      if (t.object != prev_object && group > 0) {
        self_join += group * group;
        group = 0;
      }
      prev_object = t.object;
      ++group;
    }
    if (group > 0) self_join += group * group;
    (self_join > 50000 ? heavy : light).emplace_back(
        self_join, dict.term(p).lexical());
  }
  ALEX_CHECK(!light.empty());
  if (heavy.empty()) heavy = light;
  std::sort(heavy.rbegin(), heavy.rend());
  std::sort(light.rbegin(), light.rend());

  Rng rng(seed);
  auto heavy_pred = [&] { return heavy[rng.NextBounded(heavy.size())].second; };
  auto light_pred = [&] {
    const size_t busy = std::max<size_t>(1, light.size() / 2);
    return light[rng.NextBounded(busy)].second;
  };
  std::vector<std::string> queries;
  size_t attempts = 0;
  while (queries.size() < count && attempts < count * 20) {
    ++attempts;
    const std::string p1 = heavy_pred();
    const std::string p2 = light_pred(), p3 = light_pred(),
                      p4 = light_pred();
    const std::string head = "?a <" + p1 + "> ?v . ?b <" + p1 + "> ?v . ";
    std::string text;
    switch (rng.NextBounded(4)) {
      case 0:
        text = "SELECT DISTINCT ?v WHERE { " + head + "?b <" + p2 +
               "> ?w . ?c <" + p2 + "> ?w }";
        break;
      case 1:
        text = "SELECT DISTINCT ?a WHERE { " + head + "?a <" + p2 +
               "> ?w . ?b <" + p2 + "> ?w }";
        break;
      case 2:
        text = "SELECT DISTINCT ?w WHERE { " + head + "?b <" + p2 +
               "> ?w . ?c <" + p2 + "> ?w . ?c <" + p3 + "> ?x }";
        break;
      default:
        text = "SELECT DISTINCT ?v WHERE { " + head + "?b <" + p2 +
               "> ?w . ?c <" + p2 + "> ?w . ?c <" + p3 + "> ?x . ?d <" +
               p4 + "> ?x }";
        break;
    }
    std::string unlimited = text;
    unlimited.erase(unlimited.find("DISTINCT "), 9);
    alex::Result<Query> parsed = alex::sparql::ParseQuery(unlimited);
    ALEX_CHECK(parsed.ok()) << unlimited;
    alex::Result<std::vector<Binding>> rows =
        alex::sparql::Execute(parsed.value(), store, ExecuteOptions{});
    ALEX_CHECK(rows.ok()) << rows.status().ToString();
    if (rows.value().size() >= 900000) continue;
    queries.push_back(std::move(text));
  }
  ALEX_CHECK(queries.size() == count)
      << "multi-join generation exhausted attempts";
  return queries;
}

std::vector<Binding> Sorted(alex::Result<std::vector<Binding>> rows) {
  ALEX_CHECK(rows.ok()) << rows.status().ToString();
  std::vector<Binding> sorted = std::move(rows).value();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// Compiles and executes `query` with `stats`, on the greedy baseline (a
// compile without physical plans) or by plain Execute.
alex::Result<std::vector<Binding>> CompileAndRun(
    const Query& query, const TripleStore& store,
    const alex::rdf::DatasetStats& stats, bool greedy) {
  if (greedy) return alex::sparql::ExecuteGreedy(query, store, &stats);
  ExecuteOptions options;
  options.stats = &stats;
  return alex::sparql::Execute(query, store, options);
}

// Compiles and executes every query once on `pool`; returns the total row
// count.
uint64_t RunAll(const std::vector<Query>& queries, const TripleStore& store,
                const alex::rdf::DatasetStats& stats, bool greedy,
                ThreadPool* pool) {
  std::atomic<uint64_t> rows{0};
  pool->ParallelFor(queries.size(), 1, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) {
      alex::Result<std::vector<Binding>> result =
          CompileAndRun(queries[i], store, stats, greedy);
      ALEX_CHECK(result.ok()) << result.status().ToString();
      local += result.value().size();
    }
    rows.fetch_add(local, std::memory_order_relaxed);
  });
  return rows.load();
}

void MultiJoinGate() {
  const int kRepeats = 3;
  const size_t kQueries = 120;
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  // Doubled entity counts: value joins grow quadratically with the store,
  // so per-solution engine costs dominate per-query overheads.
  config.profile.overlap_entities *= 2;
  config.profile.left_only_entities *= 2;
  config.profile.right_only_entities *= 2;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  const TripleStore& store = world.left;
  (void)store.size();  // build the indexes before timing
  const alex::rdf::DatasetStats stats = alex::rdf::ComputeStats(store);

  const std::vector<std::string> texts =
      GenerateMultiJoinQueries(store, kQueries, /*seed=*/0xbeef);
  std::vector<Query> queries;
  for (const std::string& text : texts) {
    alex::Result<Query> parsed = alex::sparql::ParseQuery(text);
    ALEX_CHECK(parsed.ok()) << text << ": " << parsed.status().ToString();
    queries.push_back(std::move(parsed).value());
  }

  // The ratio only counts when both sides return the term-space oracle's
  // rows.
  std::string failed;
  uint64_t expected_rows = 0;
  for (const Query& query : queries) {
    const std::vector<Binding> reference =
        Sorted(alex::sparql::OracleExecute(query, store));
    if (Sorted(CompileAndRun(query, store, stats, /*greedy=*/true)) !=
            reference ||
        Sorted(CompileAndRun(query, store, stats, /*greedy=*/false)) !=
            reference) {
      failed = "a side's rows differ from the oracle's";
      break;
    }
    expected_rows += reference.size();
  }

  double greedy_ms = -1.0;
  double planned_ms = -1.0;
  ThreadPool pool(1);
  for (int rep = 0; failed.empty() && rep < kRepeats; ++rep) {
    uint64_t greedy_rows = 0;
    uint64_t planned_rows = 0;
    const double g = TimeMs([&] {
      greedy_rows = RunAll(queries, store, stats, /*greedy=*/true, &pool);
    });
    const double p = TimeMs([&] {
      planned_rows = RunAll(queries, store, stats, /*greedy=*/false, &pool);
    });
    if (greedy_rows != expected_rows || planned_rows != expected_rows) {
      failed = "row count drifted in a timed run";
    }
    if (greedy_ms < 0.0 || g < greedy_ms) greedy_ms = g;
    if (planned_ms < 0.0 || p < planned_ms) planned_ms = p;
  }

  const double ratio = failed.empty() ? greedy_ms / planned_ms : 0.0;
  Report("planned vs greedy, multi-join", Format("%.2fx", ratio), ">= 1.3x",
         failed.empty() && ratio >= 1.3,
         failed.empty() ? Format("(greedy %.0f ms, ", greedy_ms) +
                              Format("planned %.0f ms)", planned_ms)
                        : failed);
}

// -- Ingest >= 10x rebuild at 1% growth ------------------------------------

// One engine over its own copy of the world: ingest mutates the stores.
struct IngestRun {
  IngestRun(const alex::eval::ExperimentConfig& config, bool incremental,
            int num_threads)
      : world(alex::datagen::Generate(config.profile)) {
    alex::core::AlexOptions options = config.alex;
    options.incremental_ingest = incremental;
    options.num_threads = num_threads;
    engine = std::make_unique<AlexEngine>(&world.left, &world.right, options);
    const std::vector<Link> initial = alex::linking::FilterByScore(
        alex::linking::RunParis(world.left, world.right),
        alex::linking::kParisThreshold);
    alex::Status status = engine->Initialize(initial);
    ALEX_CHECK(status.ok()) << status.message();
    // An untimed empty ingest builds the one-time lazy ingest structures,
    // so the timed epochs measure steady-state ingest.
    status = engine->IngestTriples();
    ALEX_CHECK(status.ok()) << status.message();
  }

  std::vector<uint64_t> Fingerprints() const {
    std::vector<uint64_t> out = {engine->right_context()->index.Fingerprint()};
    for (const alex::core::PartitionAlex& partition : engine->partitions()) {
      out.push_back(partition.space().Fingerprint());
    }
    return out;
  }

  alex::datagen::GeneratedWorld world;
  std::unique_ptr<AlexEngine> engine;
  double ms = 0.0;
};

struct IngestOutcome {
  double ratio = 0.0;
  size_t triples = 0;
  size_t entities = 0;
  std::string failed;
};

// 20 epochs of 1% entity growth (growth seed 7) folded in by IngestTriples
// (blocking-index sidecars, FeatureSpace::Grow) against an engine that
// rebuilds its blocking index and score arenas on every epoch. After every
// epoch both engines must hold the same blocking index and spaces.
IngestOutcome IngestVsRebuild(int num_threads) {
  const int kEpochs = 20;
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  IngestRun ingest(config, /*incremental=*/true, num_threads);
  IngestRun rebuild(config, /*incremental=*/false, num_threads);
  const alex::datagen::GrowthSchedule schedule = alex::datagen::GrowWorld(
      config.profile, /*seed=*/7, /*fraction=*/0.01, kEpochs);
  IngestOutcome out;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (IngestRun* run : {&ingest, &rebuild}) {
      alex::datagen::ApplyGrowthEpoch(schedule.epochs[epoch],
                                      &run->world.left, &run->world.right);
    }
    AlexEngine::IngestStats stats;
    for (IngestRun* run : {&ingest, &rebuild}) {
      alex::Status status;
      run->ms += TimeMs([&] { status = run->engine->IngestTriples(&stats); });
      ALEX_CHECK(status.ok()) << status.message();
      if (run == &ingest) {
        out.triples += stats.triples_ingested;
        out.entities += stats.new_left_entities + stats.new_right_entities;
      }
    }
    if (ingest.Fingerprints() != rebuild.Fingerprints()) {
      out.failed = "fingerprints differ at epoch " + std::to_string(epoch);
      return out;
    }
  }
  if (out.triples == 0 || out.entities == 0) {
    out.failed = "the growth schedule moved no data";
    return out;
  }
  out.ratio = rebuild.ms / ingest.ms;
  return out;
}

void IngestGate() {
  // num_threads 0: the engines size their pools to the host.
  const IngestOutcome host = IngestVsRebuild(/*num_threads=*/0);
  const IngestOutcome serial = IngestVsRebuild(/*num_threads=*/1);
  Report("ingest vs rebuild, 1% growth", Format("%.1fx", host.ratio),
         ">= 10x", host.failed.empty() && host.ratio >= 10.0,
         host.failed.empty()
             ? Format("(at 1 worker %.1fx, information only)", serial.ratio)
             : host.failed);
}

// -- Epoch-pin indirection < 5% --------------------------------------------

void PinIndirectionGate() {
  const double kBlockMs = 200.0;
  const int kRounds = 5;
  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  const std::vector<Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);
  alex::eval::WorkloadOptions workload_options;
  workload_options.num_queries = 250;
  const std::vector<alex::eval::WorkloadQuery> workload =
      alex::eval::GenerateWorkload(world, workload_options);
  const std::vector<const TripleStore*> sources = {&world.left, &world.right};

  // The seed engine over a view published from the same links against a
  // ServingEngine with its caches off, so that only the epoch pin differs.
  alex::fed::StagedLinkSet staged;
  for (const Link& link : initial) staged.Stage(link, true);
  const std::shared_ptr<const alex::fed::LinkView> links = staged.Publish();
  alex::fed::FederatedEngine direct(sources, links.get());
  alex::serving::ServingOptions options;
  options.sources = sources;
  options.use_query_cache = false;
  options.use_plan_cache = false;
  alex::serving::ServingEngine serving(options, initial);

  auto run_direct = [&](const std::string& text) {
    return direct.ExecuteText(text).ok();
  };
  auto run_serving = [&](const std::string& text) {
    return serving.ExecuteText(text).ok();
  };
  // One pass takes milliseconds, shorter than the host's speed swings, so
  // each block repeats whole passes for at least kBlockMs and yields its mean
  // pass time. The blocks alternate in ABBA order, and the gate compares the
  // engines' medians.
  auto block_pass_ms = [&](auto&& execute) {
    const auto start = std::chrono::steady_clock::now();
    int passes = 0;
    double elapsed_ms = 0.0;
    do {
      for (const alex::eval::WorkloadQuery& query : workload) {
        ALEX_CHECK(execute(query.text));
      }
      ++passes;
      elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    } while (elapsed_ms < kBlockMs);
    return elapsed_ms / passes;
  };
  std::vector<double> direct_ms;
  std::vector<double> serving_ms;
  for (int round = 0; round < kRounds; ++round) {
    direct_ms.push_back(block_pass_ms(run_direct));
    serving_ms.push_back(block_pass_ms(run_serving));
    serving_ms.push_back(block_pass_ms(run_serving));
    direct_ms.push_back(block_pass_ms(run_direct));
  }
  const double direct_median = Median(direct_ms);
  const double serving_median = Median(serving_ms);
  const double overhead =
      100.0 * (serving_median - direct_median) / direct_median;
  Report("epoch-pin indirection", Format("%.2f%%", overhead), "< 5%",
         overhead < 5.0,
         Format("(median pass: direct %.2f ms, ", direct_median) +
             Format("serving %.2f ms)", serving_median));
}

// -- Sharded aggregator >= 0.9x single-lock at 4 writers, each at its best --

// SplitMix64: cheap deterministic bits for the synthetic vote schedule.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ScheduledVote {
  uint32_t link = 0;
  bool approve = false;
};

// Casts each epoch's slice of `schedule` through `threads` writers into an
// aggregator of `shards` shards and drains once per epoch. Returns the wall
// time of AddVote + DrainVerdicts and the number of verdicts drained.
std::pair<double, uint64_t> CastAndDrain(
    const std::vector<Link>& links, const std::vector<ScheduledVote>& schedule,
    int epochs, int threads, size_t shards) {
  alex::feedback::AggregatorOptions options;
  options.quorum = 3;
  options.num_shards = shards;
  alex::feedback::FeedbackAggregator aggregator(options);
  const size_t per_epoch = schedule.size() / epochs;
  std::vector<std::vector<alex::feedback::LinkVerdict>> drained;
  const double ms = TimeMs([&] {
    for (int epoch = 1; epoch <= epochs; ++epoch) {
      const size_t begin = static_cast<size_t>(epoch - 1) * per_epoch;
      auto cast = [&](int writer) {
        for (size_t v = begin + static_cast<size_t>(writer);
             v < begin + per_epoch; v += static_cast<size_t>(threads)) {
          aggregator.AddVote(links[schedule[v].link], schedule[v].approve);
        }
      };
      std::vector<std::thread> writers;
      for (int t = 1; t < threads; ++t) writers.emplace_back(cast, t);
      cast(0);
      for (std::thread& writer : writers) writer.join();
      drained.push_back(aggregator.DrainVerdicts(static_cast<uint64_t>(epoch)));
    }
  });
  uint64_t verdicts = 0;
  for (const auto& batch : drained) verdicts += batch.size();
  return {ms, verdicts};
}

void ShardedAggregatorGate() {
  const size_t kLinks = 8000;
  const size_t kVotesPerEpoch = 40000;
  const int kEpochs = 6;
  const int kRepeats = 5;
  std::vector<Link> links;
  for (size_t i = 0; i < kLinks; ++i) {
    links.push_back(Link{"http://left.example/e" + std::to_string(i),
                         "http://right.example/e" + std::to_string(i), 0.9});
  }
  // About 80% of the links lean approve; each vote dissents with 15%
  // probability, so quorums keep re-forming every epoch.
  std::vector<ScheduledVote> schedule(kVotesPerEpoch * kEpochs);
  for (size_t v = 0; v < schedule.size(); ++v) {
    schedule[v].link = static_cast<uint32_t>(Mix(v * 2 + 1) % kLinks);
    const bool leaning = Mix(schedule[v].link * 2 + 1) % 10 < 8;
    schedule[v].approve = Mix(v * 2 + 2) % 100 < 15 ? !leaning : leaning;
  }

  // Sharding exists for concurrent writers: the gate times 4 writers, where
  // one lock serializes them. At 1 writer the two designs do the same work,
  // so that ratio follows code layout and is printed for information only.
  // The repeats interleave the two designs so that host drift hits both.
  struct Best {
    double single_ms = -1.0;
    double sharded_ms = -1.0;
  };
  bool drained = true;
  auto best_at = [&](int threads) {
    Best best;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (size_t shards : {size_t{1}, size_t{16}}) {
        auto [ms, verdicts] =
            CastAndDrain(links, schedule, kEpochs, threads, shards);
        drained = drained && verdicts > 0;
        double& slot = shards == 1 ? best.single_ms : best.sharded_ms;
        if (slot < 0.0 || ms < slot) slot = ms;
      }
    }
    return best;
  };
  const Best one = best_at(1);
  const Best four = best_at(4);
  const double ratio = four.single_ms / four.sharded_ms;
  Report("sharded vs single-lock, 4 writers", Format("%.2fx", ratio),
         ">= 0.9x", drained && ratio >= 0.9,
         drained ? Format("(single %.1f ms, ", four.single_ms) +
                       Format("sharded %.1f ms; ", four.sharded_ms) +
                       Format("at 1 writer %.2fx: ",
                              one.single_ms / one.sharded_ms) +
                       Format("single %.1f ms, ", one.single_ms) +
                       Format("sharded %.1f ms, information only)",
                              one.sharded_ms)
                 : "a configuration drained no verdicts");
}

}  // namespace

int main() {
  std::printf("host: %s, %u vCPUs\nbuild: %s, %s\n\n", CpuModel().c_str(),
              std::thread::hardware_concurrency(), ALEX_GATES_COMPILER,
              ALEX_GATES_BUILD_TYPE);
  BlockedBuildGate();
  MultiJoinGate();
  IngestGate();
  PinIndirectionGate();
  ShardedAggregatorGate();
  std::printf("\n%s\n", failures == 0 ? "all gates pass"
                                      : (std::to_string(failures) +
                                         " gate(s) failed")
                                            .c_str());
  return failures == 0 ? 0 : 1;
}
