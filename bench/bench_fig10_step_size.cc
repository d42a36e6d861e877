// Figure 10 (Appendix D): sensitivity to the step size (0.01 / 0.05 / 0.1).
// Expected: F-measure similar, slightly better with larger steps; recall
// clearly ordered by step size; larger steps draw more negative feedback
// and cost more execution time.
#include <iomanip>
#include <iostream>

#include "bench_common.h"

int main() {
  using alex::bench::Column;
  using alex::bench::Metric;

  alex::eval::ExperimentConfig config =
      alex::bench::MakeConfig("dbpedia_nytimes");
  config.alex.max_episodes = 25;
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  const double kSteps[] = {0.01, 0.05, 0.1};
  std::vector<alex::eval::ExperimentResult> results;
  for (double step : kSteps) {
    config.alex.step_size = step;
    alex::Result<alex::eval::ExperimentResult> result =
        alex::eval::RunExperimentOnWorld(config, world, initial);
    ALEX_CHECK(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }

  alex::bench::PrintComparison(
      "Figure 10(a): F-measure by step size", "f-measure",
      {"step 0.01", "step 0.05", "step 0.1"},
      {Column(results[0], Metric::kFMeasure),
       Column(results[1], Metric::kFMeasure),
       Column(results[2], Metric::kFMeasure)});
  alex::bench::PrintComparison(
      "Figure 10(b): recall by step size", "recall",
      {"step 0.01", "step 0.05", "step 0.1"},
      {Column(results[0], Metric::kRecall),
       Column(results[1], Metric::kRecall),
       Column(results[2], Metric::kRecall)});
  alex::bench::PrintComparison(
      "Figure 10(c): negative feedback by step size", "% negative feedback",
      {"step 0.01", "step 0.05", "step 0.1"},
      {Column(results[0], Metric::kNegativePercent),
       Column(results[1], Metric::kNegativePercent),
       Column(results[2], Metric::kNegativePercent)});

  std::cout << "\nExecution time (episode loop):\n" << std::fixed
            << std::setprecision(2);
  for (size_t i = 0; i < results.size(); ++i) {
    std::cout << "  step " << kSteps[i] << ": " << results[i].total_seconds
              << " s over " << results[i].episodes << " episodes\n";
  }
  return 0;
}
