// Feedback-at-scale benchmark (ISSUE 9 perf trajectory), two parts:
//
//   1. Aggregator throughput: votes/sec and verdicts/sec through the
//      sharded FeedbackAggregator vs the single-lock configuration
//      (num_shards = 1) at 1/2/4 writer threads, over a fixed pre-built
//      vote schedule. Correctness gate: the concatenated drained verdict
//      batches are byte-identical across every thread count and shard
//      count — the batch is a pure function of the per-link vote
//      multisets, never of arrival order.
//
//   2. Feedback efficiency: episodes to reach the convergence F-measure
//      under prioritized (uncertainty-weighted) link sampling vs the
//      uniform baseline, at an equal per-episode vote budget through the
//      full vote-driven pipeline. Gate: prioritized needs no more
//      episodes than uniform.
//
// The bench exits nonzero if either gate fails.
// Writes BENCH_feedback.json (path via --out).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/alex_engine.h"
#include "datagen/profiles.h"
#include "eval/vote_driven.h"
#include "feedback/aggregator.h"
#include "linking/paris.h"

namespace {

using alex::feedback::AggregatorOptions;
using alex::feedback::FeedbackAggregator;
using alex::feedback::LinkVerdict;
using alex::linking::Link;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// SplitMix64 — cheap deterministic bits for the synthetic vote schedule.
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

// -- Part 1: aggregator throughput ----------------------------------------

constexpr size_t kLinks = 8000;
constexpr size_t kVotesPerEpoch = 40000;
constexpr int kEpochs = 6;
constexpr int kThroughputRepeats = 5;

struct ThroughputOutcome {
  double ms = 0.0;
  uint64_t verdicts = 0;
  std::string batches;  // canonical text of every drained batch, in order
};

// Casts the fixed schedule through `threads` writers into an aggregator of
// `shards` shards, draining once per epoch. Only AddVote + DrainVerdicts
// are timed; the schedule and link table are prepared by the caller and the
// batch serialization happens after the clock stops.
ThroughputOutcome RunThroughput(const std::vector<Link>& links,
                                const std::vector<ScheduledVote>& schedule,
                                int threads, size_t shards) {
  AggregatorOptions options;
  options.quorum = 3;
  options.num_shards = shards;
  FeedbackAggregator aggregator(options);

  ThroughputOutcome outcome;
  std::vector<std::vector<LinkVerdict>> drained;
  drained.reserve(kEpochs);
  auto start = std::chrono::steady_clock::now();
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const size_t begin = (epoch - 1) * kVotesPerEpoch;
    auto cast = [&](int thread_index) {
      for (size_t v = begin + static_cast<size_t>(thread_index);
           v < begin + kVotesPerEpoch; v += static_cast<size_t>(threads)) {
        const ScheduledVote& vote = schedule[v];
        aggregator.AddVote(links[vote.link], vote.approve);
      }
    };
    if (threads > 1) {
      std::vector<std::thread> writers;
      writers.reserve(static_cast<size_t>(threads) - 1);
      for (int t = 1; t < threads; ++t) writers.emplace_back(cast, t);
      cast(0);
      for (std::thread& w : writers) w.join();
    } else {
      cast(0);
    }
    drained.push_back(
        aggregator.DrainVerdicts(static_cast<uint64_t>(epoch)));
  }
  outcome.ms = MsSince(start);

  std::ostringstream batches;
  for (size_t epoch = 0; epoch < drained.size(); ++epoch) {
    for (const LinkVerdict& verdict : drained[epoch]) {
      batches << verdict.link.left << '|' << verdict.link.right << '|'
              << verdict.approve << '|' << verdict.positive << '|'
              << verdict.negative << '\n';
      ++outcome.verdicts;
    }
    batches << "-- epoch " << epoch + 1 << '\n';
  }
  outcome.batches = batches.str();
  return outcome;
}

// -- Part 2: prioritized vs uniform convergence ---------------------------

constexpr double kConvergenceF = 0.95;

// First episode whose F-measure reaches the threshold; max_episodes + 1
// when the run never gets there (so "never" loses every comparison).
int EpisodesToThreshold(const alex::eval::ExperimentResult& result,
                        int max_episodes) {
  for (const alex::eval::EpisodePoint& point : result.series) {
    if (point.quality.f_measure >= kConvergenceF) return point.episode;
  }
  return max_episodes + 1;
}

alex::eval::ExperimentResult RunVoteDriven(
    const alex::datagen::GeneratedWorld& world,
    const std::vector<Link>& initial, bool prioritized) {
  alex::core::AlexOptions options;
  options.num_partitions = 2;
  options.num_threads = 1;
  options.prioritized_sampling = prioritized;
  options.max_episodes = 20;
  alex::core::AlexEngine engine(&world.left, &world.right, options);
  alex::Status status = engine.Initialize(initial);
  ALEX_CHECK(status.ok()) << status.ToString();

  alex::feedback::GroundTruth truth(world.ground_truth);
  alex::eval::VoteDrivenOptions vote_options;
  vote_options.links_per_episode = 150;
  vote_options.users_per_link = 5;
  vote_options.vote_error_rate = 0.1;
  vote_options.vote_threads = 2;
  vote_options.aggregator.quorum = 3;
  return alex::eval::RunVoteDrivenExperiment(&engine, truth, vote_options);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_feedback.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    }
  }

  // -- Part 1 --------------------------------------------------------------
  std::cout << "== Feedback aggregation: verdicts/sec, sharded vs "
               "single-lock ==\n"
            << kLinks << " links, " << kEpochs << " epochs of "
            << kVotesPerEpoch << " votes, quorum 3, best of "
            << kThroughputRepeats << "\n";

  std::vector<Link> links;
  links.reserve(kLinks);
  for (size_t i = 0; i < kLinks; ++i) {
    links.push_back(Link{"http://left.example/e" + std::to_string(i),
                         "http://right.example/e" + std::to_string(i), 0.9});
  }
  // ~80% of links lean approve, the rest lean reject; each individual vote
  // dissents with 15% probability, so quorums keep re-forming every epoch.
  std::vector<ScheduledVote> schedule(kVotesPerEpoch * kEpochs);
  for (size_t v = 0; v < schedule.size(); ++v) {
    ScheduledVote& vote = schedule[v];
    vote.link = static_cast<uint32_t>(Mix(v * 2 + 1) % kLinks);
    const bool leaning = Mix(vote.link * 2 + 1) % 10 < 8;
    vote.approve = Mix(v * 2 + 2) % 100 < 15 ? !leaning : leaning;
  }

  struct Row {
    int threads = 0;
    size_t shards = 0;
    double best_ms = 0.0;
    uint64_t verdicts = 0;
  };
  std::vector<Row> rows;
  std::string reference_batches;
  bool identical_batches = true;
  // Repeats interleave the two shard configurations back to back so host
  // load drifts (this may run on a shared single-core container) hit both
  // equally; each row keeps its best repeat.
  for (int threads : {1, 2, 4}) {
    for (size_t shards : {size_t{1}, size_t{16}}) {
      Row row;
      row.threads = threads;
      row.shards = shards;
      row.best_ms = -1.0;
      rows.push_back(row);
    }
    for (int rep = 0; rep < kThroughputRepeats; ++rep) {
      for (Row& row : rows) {
        if (row.threads != threads) continue;
        ThroughputOutcome outcome =
            RunThroughput(links, schedule, threads, row.shards);
        if (reference_batches.empty()) {
          reference_batches = outcome.batches;
        } else if (outcome.batches != reference_batches) {
          identical_batches = false;
        }
        if (row.best_ms < 0.0 || outcome.ms < row.best_ms) {
          row.best_ms = outcome.ms;
          row.verdicts = outcome.verdicts;
        }
      }
    }
  }
  for (const Row& row : rows) {
    const double votes_per_sec =
        1000.0 * static_cast<double>(schedule.size()) / row.best_ms;
    std::cout << "  " << row.threads << " thread(s), " << std::setw(2)
              << row.shards << " shard(s): " << std::fixed
              << std::setprecision(1) << std::setw(8) << row.best_ms
              << " ms  " << std::setw(10) << std::setprecision(0)
              << votes_per_sec << " votes/sec  " << row.verdicts
              << " verdicts\n";
  }
  std::cout << (identical_batches
                    ? "all configurations drained identical verdict batches\n"
                    : "BATCH MISMATCH across configurations!\n");

  // Gate on the best configuration each design reaches. On a many-core box
  // the sharded peak is the contended 4-thread row and lands well above
  // 1.0x; on a single hardware thread the two designs do identical per-vote
  // work and the ratio hovers at 1.0x, so the hard gate allows a 10% noise
  // band rather than flaking on scheduler jitter.
  double single_peak_ms = -1.0, sharded_peak_ms = -1.0;
  double single_4t_ms = 0.0, sharded_4t_ms = 0.0;
  for (const Row& row : rows) {
    double& peak = row.shards == 1 ? single_peak_ms : sharded_peak_ms;
    if (peak < 0.0 || row.best_ms < peak) peak = row.best_ms;
    if (row.threads == 4 && row.shards == 1) single_4t_ms = row.best_ms;
    if (row.threads == 4 && row.shards == 16) sharded_4t_ms = row.best_ms;
  }
  const double speedup_peak =
      sharded_peak_ms > 0.0 ? single_peak_ms / sharded_peak_ms : 0.0;
  const double speedup_4t =
      sharded_4t_ms > 0.0 ? single_4t_ms / sharded_4t_ms : 0.0;
  const bool sharded_not_slower = speedup_peak >= 0.9;
  std::cout << "sharded vs single-lock: " << std::fixed
            << std::setprecision(2) << speedup_peak << "x at peak, "
            << speedup_4t << "x at 4 threads\n";

  // -- Part 2 --------------------------------------------------------------
  std::cout << "\n== Prioritized vs uniform sampling: episodes to F >= "
            << std::setprecision(2) << kConvergenceF
            << " at equal vote budget ==\n";
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(alex::datagen::TinyTestProfile());
  std::vector<Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right), 0.95);

  alex::eval::ExperimentResult uniform =
      RunVoteDriven(world, initial, /*prioritized=*/false);
  alex::eval::ExperimentResult prioritized =
      RunVoteDriven(world, initial, /*prioritized=*/true);
  const int max_episodes = 20;
  const int uniform_episodes = EpisodesToThreshold(uniform, max_episodes);
  const int prioritized_episodes =
      EpisodesToThreshold(prioritized, max_episodes);
  const bool prioritized_not_slower =
      prioritized_episodes <= uniform_episodes;
  auto describe = [max_episodes](const char* label, int episodes,
                                 const alex::eval::ExperimentResult& r) {
    std::cout << "  " << label << ": ";
    if (episodes > max_episodes) {
      std::cout << "not reached in " << max_episodes << " episodes";
    } else {
      std::cout << "episode " << episodes;
    }
    std::cout << " (final F " << std::fixed << std::setprecision(3)
              << r.final_quality().f_measure << ", "
              << r.series.back().stats.votes_recorded << " votes)\n";
  };
  describe("uniform    ", uniform_episodes, uniform);
  describe("prioritized", prioritized_episodes, prioritized);

  // -- JSON ----------------------------------------------------------------
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << std::fixed << std::setprecision(3);
  out << "{\n"
      << "  \"bench\": \"feedback\",\n"
      << "  \"links\": " << kLinks << ",\n"
      << "  \"votes\": " << schedule.size() << ",\n"
      << "  \"epochs\": " << kEpochs << ",\n"
      << "  \"repeats\": " << kThroughputRepeats << ",\n"
      << "  \"identical_batches\": "
      << (identical_batches ? "true" : "false") << ",\n"
      << "  \"sharded_vs_single_speedup_peak\": " << speedup_peak << ",\n"
      << "  \"sharded_vs_single_speedup_4t\": " << speedup_4t << ",\n"
      << "  \"sharded_not_slower\": "
      << (sharded_not_slower ? "true" : "false") << ",\n"
      << "  \"convergence_f\": " << kConvergenceF << ",\n"
      << "  \"uniform_episodes\": " << uniform_episodes << ",\n"
      << "  \"prioritized_episodes\": " << prioritized_episodes << ",\n"
      << "  \"prioritized_not_slower\": "
      << (prioritized_not_slower ? "true" : "false") << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"threads\": " << row.threads << ", \"shards\": "
        << row.shards << ", \"ms\": " << row.best_ms
        << ", \"votes_per_sec\": "
        << 1000.0 * static_cast<double>(schedule.size()) / row.best_ms
        << ", \"verdicts_per_sec\": "
        << 1000.0 * static_cast<double>(row.verdicts) / row.best_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(json written to " << out_path << ")\n";

  return identical_batches && sharded_not_slower && prioritized_not_slower
             ? 0
             : 1;
}
