// §7.3 "Execution Time": wall-clock per episode, slowest vs. average
// partition, and pre-processing time, for batch mode (DBpedia - NYTimes,
// episode size 1000) and the interactive specific-domain setting
// (DBpedia NBA - NYTimes, episode size 10). The paper reports minutes per
// episode in batch mode and ~1.3 s per episode interactively on full-scale
// data; the scaled data here runs correspondingly faster — the comparison
// of interest is batch vs. interactive and slowest vs. average partition.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/feature_space.h"

namespace {

// Runs the pipeline with the right context prepared ONCE up front and handed
// to the engine via ExperimentConfig::right_context (the ROADMAP
// right-context-reuse item), reporting its preparation time separately from
// the engine's per-partition pre-processing.
void Report(const std::string& title, alex::eval::ExperimentConfig config) {
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  auto prepare_start = std::chrono::steady_clock::now();
  config.right_context = alex::core::RightContext::Prepare(
      world.right, world.right.Subjects(), config.alex.space);
  double prepare_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - prepare_start)
          .count();

  alex::Result<alex::eval::ExperimentResult> result =
      alex::eval::RunExperimentOnWorld(config, world, initial);
  ALEX_CHECK(result.ok()) << result.status().ToString();
  const alex::eval::ExperimentResult& r = result.value();
  alex::eval::PrintHeader(std::cout, title);
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "right-context preparation (shared): " << prepare_seconds
            << " s\n"
            << "pre-processing (feature spaces): " << r.init_seconds
            << " s\n";
  double total = 0.0, max_partition = 0.0, sum_partition = 0.0;
  std::cout << std::setw(8) << "episode" << std::setw(12) << "seconds"
            << std::setw(16) << "slowest-part" << std::setw(14)
            << "avg-part" << "\n";
  for (const alex::eval::EpisodePoint& point : r.series) {
    if (point.episode == 0) continue;
    std::cout << std::setw(8) << point.episode << std::setw(12)
              << point.stats.seconds << std::setw(16)
              << point.stats.max_partition_seconds << std::setw(14)
              << point.stats.avg_partition_seconds << "\n";
    total += point.stats.seconds;
    max_partition += point.stats.max_partition_seconds;
    sum_partition += point.stats.avg_partition_seconds;
  }
  int episodes = std::max(1, r.episodes);
  std::cout << "episodes: " << r.episodes << ", total episode time: "
            << total << " s (" << total / episodes << " s/episode)\n"
            << "cumulative slowest-partition time: " << max_partition
            << " s, average-partition time: " << sum_partition << " s\n";
  std::cout.unsetf(std::ios::fixed);
}

}  // namespace

int main() {
  alex::eval::ExperimentConfig batch =
      alex::bench::MakeConfig("dbpedia_nytimes");
  batch.alex.max_episodes = 15;
  Report("Execution time, batch mode (DBpedia - NYTimes, episodes of 1000)",
         batch);

  alex::eval::ExperimentConfig interactive =
      alex::bench::MakeConfig("dbpedia_nba_nytimes");
  interactive.alex.episode_size = 10;
  interactive.alex.num_partitions = 2;
  interactive.alex.max_episodes = 20;
  Report(
      "Execution time, interactive mode (DBpedia NBA - NYTimes, episodes "
      "of 10)",
      interactive);
  return 0;
}
