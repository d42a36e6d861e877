// Figure 11 (Appendix D): sensitivity to the episode size (500/1000/1500).
// Expected: very similar F-measure trajectories; larger episodes take fewer
// episodes to converge because each episode carries more feedback.
#include <iostream>

#include "bench_common.h"

int main() {
  using alex::bench::Column;
  using alex::bench::Metric;

  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  config.alex.max_episodes = 30;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  const size_t kSizes[] = {500, 1000, 1500};
  std::vector<alex::eval::ExperimentResult> results;
  for (size_t size : kSizes) {
    config.alex.episode_size = size;
    alex::Result<alex::eval::ExperimentResult> result =
        alex::eval::RunExperimentOnWorld(config, world, initial);
    ALEX_CHECK(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }

  alex::bench::PrintComparison(
      "Figure 11: F-measure by episode size", "f-measure",
      {"size 500", "size 1000", "size 1500"},
      {Column(results[0], Metric::kFMeasure),
       Column(results[1], Metric::kFMeasure),
       Column(results[2], Metric::kFMeasure)});
  std::cout << "\nEpisodes to convergence:\n";
  for (size_t i = 0; i < results.size(); ++i) {
    std::cout << "  episode size " << kSizes[i] << ": " << results[i].episodes
              << (results[i].converged ? " (converged)" : " (cap reached)")
              << ", relaxed at "
              << (results[i].relaxed_episode >= 0
                      ? std::to_string(results[i].relaxed_episode)
                      : std::string("never"))
              << "\n";
  }
  return 0;
}
