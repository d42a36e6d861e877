// Robustness to incorrect feedback (Appendix C as a runnable program):
// run the same experiment with a perfect user and with a user who is wrong
// 10% of the time, and compare the final link quality. ALEX's stochastic
// policy, rollback, and strike-based blacklist absorb isolated errors.
#include <iomanip>
#include <iostream>

#include "datagen/profiles.h"
#include "eval/experiment.h"

int main() {
  alex::eval::ExperimentConfig config;
  alex::datagen::ProfileByName("opencyc_nytimes", &config.profile);
  config.alex.episode_size = 500;
  config.alex.max_episodes = 15;
  config.alex.num_partitions = 4;

  // Same world and PARIS links for both runs.
  alex::datagen::GeneratedWorld world =
      alex::datagen::Generate(config.profile);
  std::vector<alex::linking::Link> initial = alex::linking::FilterByScore(
      alex::linking::RunParis(world.left, world.right),
      alex::linking::kParisThreshold);

  std::cout << std::fixed << std::setprecision(3);
  bool improved = true;
  for (double error_rate : {0.0, 0.1}) {
    config.feedback_error_rate = error_rate;
    alex::Result<alex::eval::ExperimentResult> result =
        alex::eval::RunExperimentOnWorld(config, world, initial);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const alex::eval::Quality& start = result->series[0].quality;
    const alex::eval::Quality& end = result->final_quality();
    std::cout << "\nerror rate " << std::setprecision(0)
              << error_rate * 100 << "%:" << std::setprecision(3) << "\n"
              << "  initial: P=" << start.precision << " R=" << start.recall
              << " F=" << start.f_measure << "\n"
              << "  final:   P=" << end.precision << " R=" << end.recall
              << " F=" << end.f_measure << "  (" << result->episodes
              << " episodes)\n";
    improved = improved && end.f_measure > start.f_measure;
  }
  std::cout << "\nEven with 10% wrong feedback the final quality stays far\n"
               "above the initial candidate links (compare Figure 9).\n";
  return improved ? 0 : 1;
}
