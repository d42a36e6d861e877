// Snapshot-isolated serving tier benchmark.
//
// Part 1 gates the snapshot indirection itself: the same federated workload
// runs on a seed FederatedEngine (mutable LinkSet, no caches) and through
// ServingEngine::ExecuteText (atomic epoch pin + LinkView virtual dispatch,
// caches disabled so only the indirection is timed). The answers must be
// identical row for row and the single-stream overhead is reported
// (expected < 5%). A third cached configuration shows what the carried
// epoch caches buy on a repeated workload.
//
// Part 2 runs the live-learner serving experiment at 1/2/4/8 reader
// streams with the identity gate on: every recorded stream answer set is
// replayed sequentially against its pinned epoch and must hash identically.
// Reports per-stream-count throughput (answers/sec across streams),
// serving-latency percentiles, and the epoch lifecycle counters.
//
// Writes BENCH_serving.json (path via --out). Exits nonzero if any
// identity gate fails.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/query_workload.h"
#include "federation/federated_engine.h"
#include "linking/paris.h"
#include "serving/serving_engine.h"
#include "serving/serving_loop.h"

namespace {

using alex::fed::FederatedResult;
using alex::rdf::TripleStore;
using alex::serving::ServingEngine;
using alex::serving::ServingOptions;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct StreamRow {
  size_t streams = 0;
  size_t stream_queries = 0;
  uint64_t stream_rows = 0;
  double answers_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t epochs_published = 0;
  uint64_t snapshots_retired = 0;
  uint64_t max_concurrent_readers = 0;
  size_t identity_replayed = 0;
  bool identity = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    }
  }

  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  (void)world.left.size();  // build indexes before timing / sharing
  (void)world.right.size();

  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right, config.paris),
      config.paris_threshold);
  alex::eval::WorkloadOptions workload_options;
  workload_options.num_queries = 250;
  std::vector<alex::eval::WorkloadQuery> workload =
      alex::eval::GenerateWorkload(world, workload_options);
  std::vector<const TripleStore*> sources = {&world.left, &world.right};

  std::cout << "== Serving tier: snapshot indirection ==\n"
            << "world dbpedia_nytimes: " << world.left.size() << " + "
            << world.right.size() << " triples, " << initial.size()
            << " links, " << workload.size() << " queries\n";

  // ---- Part 1: epoch-pin indirection vs the seed engine ----
  alex::fed::LinkSet links;
  for (const alex::linking::Link& link : initial) links.Add(link);
  alex::fed::FederatedEngine direct_engine(sources, &links);

  ServingOptions plain_serving;
  plain_serving.sources = sources;
  plain_serving.use_query_cache = false;
  plain_serving.use_plan_cache = false;
  ServingEngine serving(plain_serving, initial);

  bool identical_answers = true;
  uint64_t total_rows = 0;
  for (const alex::eval::WorkloadQuery& query : workload) {
    alex::Result<FederatedResult> direct =
        direct_engine.ExecuteText(query.text);
    alex::Result<FederatedResult> pinned = serving.ExecuteText(query.text);
    ALEX_CHECK(direct.ok() && pinned.ok());
    bool same = alex::serving::HashAnswers(direct->answers) ==
                alex::serving::HashAnswers(pinned->answers);
    if (!same) {
      identical_answers = false;
      std::cerr << "ANSWER MISMATCH: " << query.text << "\n";
      break;
    }
    total_rows += direct->answers.size();
  }
  std::cout << "  identity check: "
            << (identical_answers ? "serving == direct" : "MISMATCH") << " ("
            << total_rows << " total rows)\n";

  const int kRepeats = 5;
  auto time_workload = [&](auto&& execute) {
    double best_ms = -1.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      auto start = std::chrono::steady_clock::now();
      for (const alex::eval::WorkloadQuery& query : workload) {
        ALEX_CHECK(execute(query.text));
      }
      double ms = MsSince(start);
      if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };
  const double direct_ms = time_workload([&](const std::string& text) {
    return direct_engine.ExecuteText(text).ok();
  });
  const double serving_ms = time_workload([&](const std::string& text) {
    return serving.ExecuteText(text).ok();
  });
  const double overhead_pct =
      direct_ms > 0.0 ? 100.0 * (serving_ms - direct_ms) / direct_ms : 0.0;
  std::cout << std::fixed << std::setprecision(2) << "  direct   "
            << direct_ms << " ms\n  serving  " << serving_ms
            << " ms  (snapshot indirection overhead " << overhead_pct
            << "%)\n";

  // With the epoch caches on, the repeated workload is all hits after the
  // first pass — context for what the snapshot carries forward.
  ServingOptions cached_serving;
  cached_serving.sources = sources;
  ServingEngine serving_cached(cached_serving, initial);
  const double cached_ms = time_workload([&](const std::string& text) {
    return serving_cached.ExecuteText(text).ok();
  });
  std::cout << "  serving+cache " << cached_ms << " ms (repeated workload)\n";

  // ---- Part 2: live learner + concurrent streams, identity gated ----
  std::cout << "== Live learner with concurrent reader streams ==\n";
  alex::feedback::GroundTruth truth(world.ground_truth);
  const std::vector<size_t> kStreams = {1, 2, 4, 8};
  std::vector<StreamRow> stream_rows;
  bool streams_identical = true;
  for (size_t streams : kStreams) {
    alex::core::AlexOptions alex_options;
    alex_options.num_partitions = 2;
    alex_options.num_threads = 1;
    alex_options.episode_size = 150;
    alex_options.max_episodes = 8;
    alex::core::AlexEngine engine(&world.left, &world.right, alex_options);
    ALEX_CHECK(engine.Initialize(initial).ok());

    alex::serving::ServingLoopOptions options;
    options.workload.num_queries = 200;
    options.num_streams = streams;
    options.verify_identity = true;
    auto start = std::chrono::steady_clock::now();
    alex::serving::ServingRunResult result =
        alex::serving::RunServingExperiment(&engine, world, truth, options);
    const double wall_s = MsSince(start) / 1000.0;

    StreamRow row;
    row.streams = streams;
    row.stream_queries = result.stream_queries;
    row.stream_rows = result.stream_rows;
    row.answers_per_sec =
        wall_s > 0.0 ? static_cast<double>(result.stream_rows) / wall_s : 0.0;
    row.p50_ms = result.latency_p50_ms;
    row.p99_ms = result.latency_p99_ms;
    row.epochs_published = result.serving.epochs_published;
    row.snapshots_retired = result.serving.snapshots_retired;
    row.max_concurrent_readers = result.serving.max_concurrent_readers;
    row.identity_replayed = result.identity_replayed;
    row.identity = result.identity_ok() && result.identity_replayed > 0;
    if (!row.identity) streams_identical = false;
    stream_rows.push_back(row);
    std::cout << "  " << streams << " stream(s): " << row.stream_queries
              << " queries, " << std::setprecision(0) << row.answers_per_sec
              << " answers/s, p50 " << std::setprecision(2) << row.p50_ms
              << " / p99 " << row.p99_ms << " ms, " << row.epochs_published
              << " epochs, identity "
              << (row.identity ? "ok" : "FAILED") << " ("
              << row.identity_replayed << " replayed)\n";
  }

  const bool ok = identical_answers && streams_identical;
  const StreamRow& headline = stream_rows.back();  // 8 streams
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << std::fixed << std::setprecision(3);
  out << "{\n"
      << "  \"bench\": \"serving\",\n"
      << "  \"world\": \"dbpedia_nytimes\",\n"
      << "  \"num_queries\": " << workload.size() << ",\n"
      << "  \"total_rows\": " << total_rows << ",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"identical_answers\": "
      << (identical_answers ? "true" : "false") << ",\n"
      << "  \"identity\": " << (ok ? "true" : "false") << ",\n"
      << "  \"direct_ms\": " << direct_ms << ",\n"
      << "  \"serving_ms\": " << serving_ms << ",\n"
      << "  \"serving_cached_ms\": " << cached_ms << ",\n"
      << "  \"indirection_overhead_pct\": " << overhead_pct << ",\n"
      << "  \"overhead_under_5pct\": "
      << (overhead_pct < 5.0 ? "true" : "false") << ",\n"
      << "  \"answers_per_sec\": " << headline.answers_per_sec << ",\n"
      << "  \"p50_ms\": " << headline.p50_ms << ",\n"
      << "  \"p99_ms\": " << headline.p99_ms << ",\n"
      << "  \"epochs_published\": " << headline.epochs_published << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < stream_rows.size(); ++i) {
    const StreamRow& row = stream_rows[i];
    out << "    {\"streams\": " << row.streams << ", \"stream_queries\": "
        << row.stream_queries << ", \"stream_rows\": " << row.stream_rows
        << ", \"answers_per_sec\": " << row.answers_per_sec
        << ", \"p50_ms\": " << row.p50_ms << ", \"p99_ms\": " << row.p99_ms
        << ", \"epochs_published\": " << row.epochs_published
        << ", \"snapshots_retired\": " << row.snapshots_retired
        << ", \"max_concurrent_readers\": " << row.max_concurrent_readers
        << ", \"identity_replayed\": " << row.identity_replayed
        << ", \"identity\": " << (row.identity ? "true" : "false") << "}"
        << (i + 1 < stream_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << out_path << ")\n";
  return ok ? 0 : 1;
}
